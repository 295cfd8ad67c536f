#include "armbar/sim/trace.hpp"

#include <algorithm>
#include <sstream>

namespace armbar::sim {

std::string to_string(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::kRead: return "read";
    case TraceEvent::Kind::kWrite: return "write";
    case TraceEvent::Kind::kRmw: return "rmw";
    case TraceEvent::Kind::kPoll: return "poll";
  }
  return "?";
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  events_.reserve(std::min<std::size_t>(capacity, 4096));
}

void Tracer::record(TraceEvent ev) {
  if (events_.size() >= capacity_) return;
  // Attribute to the innermost span open on the event's core.  This runs
  // in engine execution order, which equals simulated-time resumption
  // order, so a poll issued on behalf of a parked waiter lands in the
  // phase the waiter was in when it parked.
  if (ev.core >= 0 && static_cast<std::size_t>(ev.core) < cores_.size()) {
    const auto& open = cores_[static_cast<std::size_t>(ev.core)].open;
    if (!open.empty()) {
      ev.phase = open.back().phase;
      ev.round = open.back().round;
    }
  }
  events_.push_back(ev);
}

void Tracer::attach(int num_cores, int num_layers) {
  grow_cores(static_cast<std::size_t>(std::max(num_cores, 0)));
  const auto layers = static_cast<std::size_t>(std::max(num_layers, 0));
  for (PhaseOps& o : ops_)
    if (o.stats.layer_transfers.size() < layers)
      o.stats.layer_transfers.resize(layers, 0);
}

void Tracer::begin_phase(int core, obs::Phase phase, int round,
                         util::Picos now) {
  if (core < 0) return;
  grow_cores(static_cast<std::size_t>(core) + 1);
  CoreState& s = cores_[static_cast<std::size_t>(core)];
  s.open.push_back(OpenSpan{now, phase, static_cast<std::int16_t>(round)});
  s.phase = phase;
}

void Tracer::end_phase(int core, util::Picos now) {
  if (core < 0 || static_cast<std::size_t>(core) >= cores_.size()) return;
  CoreState& s = cores_[static_cast<std::size_t>(core)];
  if (s.open.empty()) return;
  const OpenSpan top = s.open.back();
  s.open.pop_back();
  s.phase = s.open.empty() ? obs::Phase::kNone : s.open.back().phase;
  if (s.open.empty()) {
    // Outermost-span accounting (before any capacity check, like the
    // other counters): total span time plus the per-episode critical
    // path — the k-th outermost span of a phase on a core is that core's
    // k-th episode, so the max over cores per k is the phase's serial
    // floor for that episode.
    SpanTotals& t = span_totals_[static_cast<std::size_t>(top.phase)];
    const util::Picos dur = now - top.start;
    t.span_ps += dur;
    const std::uint32_t k =
        s.episodes[static_cast<std::size_t>(top.phase)]++;
    if (t.episode_max_span_ps.size() <= k)
      t.episode_max_span_ps.resize(k + 1, 0);
    t.episode_max_span_ps[k] = std::max(t.episode_max_span_ps[k], dur);
  }
  if (spans_.size() >= capacity_) {
    ++dropped_spans_;
    return;
  }
  spans_.push_back(PhaseSpan{top.start, now, core, top.phase, top.round,
                             static_cast<std::int16_t>(s.open.size())});
}

obs::Phase Tracer::current_phase(int core) const noexcept {
  if (core < 0 || static_cast<std::size_t>(core) >= cores_.size())
    return obs::Phase::kNone;
  return cores_[static_cast<std::size_t>(core)].phase;
}

int Tracer::current_round(int core) const noexcept {
  if (core < 0 || static_cast<std::size_t>(core) >= cores_.size()) return -1;
  const auto& open = cores_[static_cast<std::size_t>(core)].open;
  return open.empty() ? -1 : open.back().round;
}

Tracer::LastOp Tracer::last_op(int core) const noexcept {
  if (core < 0 || static_cast<std::size_t>(core) >= cores_.size())
    return LastOp{};
  return cores_[static_cast<std::size_t>(core)].last;
}

std::size_t Tracer::dropped() const noexcept {
  std::uint64_t ops = 0;
  for (const PhaseOps& o : ops_) {
    const MemStats& s = o.stats;
    ops += s.local_reads + s.remote_reads + s.local_writes + s.remote_writes +
           s.rmws;
  }
  return ops > events_.size() ? static_cast<std::size_t>(ops - events_.size())
                              : 0;
}

void Tracer::clear() {
  events_.clear();
  spans_.clear();
  for (CoreState& c : cores_) c = CoreState{};
  for (PhaseOps& o : ops_) {
    const std::size_t layers = o.stats.layer_transfers.size();
    o = PhaseOps{};
    o.stats.layer_transfers.assign(layers, 0);
  }
  for (SpanTotals& t : span_totals_) t = SpanTotals{};
  dropped_spans_ = 0;
}

MemStats Tracer::op_totals() const {
  MemStats total;
  for (const PhaseOps& o : ops_) total += o.stats;
  return total;
}

Tracer::PhaseCounters Tracer::phase_counters(obs::Phase p) const {
  const PhaseOps& o = ops_[static_cast<std::size_t>(p)];
  const MemStats& s = o.stats;
  PhaseCounters c;
  c.polls = s.poll_reads;
  c.reads = s.local_reads + s.remote_reads - s.poll_reads;
  c.writes = s.local_writes + s.remote_writes;
  c.rmws = s.rmws;
  c.layer_transfers = s.layer_transfers;
  c.local_ops = c.total_ops() - c.remote_transfers();
  c.rfo_invalidations = s.invalidations;
  c.busy_ps = o.busy_ps;
  const SpanTotals& t = span_totals_[static_cast<std::size_t>(p)];
  c.span_ps = t.span_ps;
  c.episode_max_span_ps = t.episode_max_span_ps;
  return c;
}

std::vector<Tracer::CoreSummary> Tracer::summarize(int num_cores) const {
  std::vector<CoreSummary> out(
      static_cast<std::size_t>(std::max(num_cores, 0)));
  for (int c = 0; c < num_cores; ++c) out[static_cast<std::size_t>(c)].core = c;
  for (const TraceEvent& ev : events_) {
    if (ev.core < 0 || ev.core >= num_cores) continue;
    CoreSummary& s = out[static_cast<std::size_t>(ev.core)];
    switch (ev.kind) {
      case TraceEvent::Kind::kRead: ++s.reads; break;
      case TraceEvent::Kind::kWrite: ++s.writes; break;
      case TraceEvent::Kind::kRmw: ++s.rmws; break;
      case TraceEvent::Kind::kPoll: ++s.polls; break;
    }
    s.busy_ps += ev.finish - ev.start;
  }
  return out;
}

std::string Tracer::to_csv() const {
  std::ostringstream os;
  os << "start_ps,finish_ps,core,line,kind,layer,phase,round\n";
  for (const TraceEvent& ev : events_) {
    os << ev.start << ',' << ev.finish << ',' << ev.core << ',' << ev.line
       << ',' << to_string(ev.kind) << ',' << static_cast<int>(ev.layer)
       << ',' << obs::to_string(ev.phase) << ',' << ev.round << '\n';
  }
  return os.str();
}

}  // namespace armbar::sim
