#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>

#include "armbar/fault/plan.hpp"
#include "armbar/obs/aggregate.hpp"
#include "armbar/obs/metrics.hpp"
#include "armbar/sim/engine.hpp"
#include "armbar/sim/trace.hpp"
#include "armbar/simbar/sim_barriers.hpp"
#include "armbar/simbar/sweep.hpp"
#include "armbar/svc/cache.hpp"
#include "armbar/topo/placement.hpp"
#include "armbar/topo/platforms.hpp"
#include "cells.hpp"

namespace perfbench {

namespace {

namespace svc = armbar::svc;
namespace simbar = armbar::simbar;

/// Every machine a workload can name, resolved on every workload so the
/// per-machine metrics exist everywhere.
const std::vector<std::string>& registry_machines() {
  static const std::vector<std::string> names = {
      "phytium2000+", "thunderx2", "kunpeng920", "xeongold", "hier1024"};
  return names;
}

/// Metric-name spelling of a machine name ('+' is not a name character).
std::string metric_suffix(const std::string& machine) {
  std::string s;
  for (const char c : machine) s += c == '+' ? 'p' : c;
  return s;
}

/// Batch size for sub-microsecond layer calls: repeat a pass over the
/// inputs until the batch has run this long.
constexpr std::int64_t kMinBatchNs = 20'000'000;

/// Run @p pass (covering @p n calls) as spans named @p name until
/// kMinBatchNs has been spent.
template <typename Fn>
void batched(Spans& spans, const std::string& name, std::uint64_t n, Fn&& pass) {
  std::int64_t spent = 0;
  do spent += spans.time(name, n, pass);
  while (spent < kMinBatchNs);
}

/// The engine-only load perf_sim --breakdown uses: every simulated thread
/// hops through a chain of deterministic delays, with no memory system.
armbar::sim::SimThread delay_chain(armbar::sim::Engine& eng, int tid,
                                   int steps) {
  for (int i = 0; i < steps; ++i)
    co_await armbar::sim::delay(
        eng, static_cast<armbar::util::Picos>(50 + (tid * 7 + i * 13) % 100));
}

/// The simulation the service runs for @p spec (its cfg and factory
/// rules), with the fault plan left to the caller.
struct Prepared {
  const armbar::topo::Machine* machine;
  simbar::SimBarrierFactory factory;
  simbar::SimRunConfig cfg;
  bool hier;
  bool in_stream;  ///< one of the workload's own cells
  const svc::JobSpec* spec;
};

simbar::SimRunConfig service_cfg(const svc::JobSpec& spec,
                                 const armbar::topo::Machine& machine) {
  simbar::SimRunConfig cfg;
  cfg.threads = spec.threads;
  cfg.iterations = spec.iterations;
  cfg.warmup = spec.effective_warmup();
  if (spec.placement == "scatter")
    cfg.core_of_thread = armbar::topo::scatter_placement(machine, spec.threads);
  else if (spec.placement == "random")
    cfg.core_of_thread = armbar::topo::random_placement(machine, spec.threads);
  return cfg;
}

/// Per-layer metric, its unit, and the end-to-end metric(s) it should
/// move (metric@workload).  The order is BENCHMARK.json's.
struct LayerDef {
  const char* name;
  const char* unit;
  const char* moves;
};

const std::vector<LayerDef>& layer_defs() {
  static const std::vector<LayerDef> defs = {
      {"sim.engine.events_per_s", "1/s",
       "events_per_s@sim_sweep jobs_per_s@svc_cold"},
      {"simbar.measure.plain_ns_per_event", "ns", "events_per_s@sim_sweep"},
      {"simbar.measure.hier_ns_per_event", "ns", "events_per_s@sim_sweep"},
      {"simbar.measure.traced_overhead", "ratio", "jobs_per_s@svc_cold"},
      {"simbar.measure.faulted_overhead", "ratio", "jobs_per_s@svc_cold"},
      {"simbar.sweep.driver_overhead_s", "s", "events_per_s@sim_sweep"},
      {"topo.resolve_s", "s", "setup_s@sim_sweep"},
      {"topo.resolve_s.phytium2000p", "s", "setup_s@sim_sweep"},
      {"topo.resolve_s.thunderx2", "s", "setup_s@sim_sweep"},
      {"topo.resolve_s.kunpeng920", "s", "setup_s@sim_sweep"},
      {"topo.resolve_s.xeongold", "s", "setup_s@svc_cold"},
      {"topo.resolve_s.hier1024", "s", "setup_s@sim_sweep"},
      {"fault.plan_build_ns", "ns", "jobs_per_s@svc_cold"},
      {"obs.make_metrics_ns", "ns", "jobs_per_s@svc_cold"},
      {"svc.parse_ns", "ns", "jobs_per_s@svc_warm"},
      {"svc.cache_key_ns", "ns", "jobs_per_s@svc_warm"},
      {"svc.cache.find_ns", "ns", "jobs_per_s@svc_warm"},
      {"svc.cache.insert_ns", "ns", "jobs_per_s@svc_warm"},
      {"svc.cache.hit_ratio", "ratio", "jobs_per_s@svc_warm"},
      {"obs.aggregate_ns_per_report", "ns",
       "peak_rss_mb@svc_warm jobs_per_s@svc_warm"},
      {"svc.serve.retained_bytes_per_job", "B",
       "peak_rss_mb@svc_warm jobs_per_s@svc_warm"},
      {"svc.serve.self_ns_per_job", "ns", "jobs_per_s@svc_warm"},
      {"svc.oneshot.self_ns_per_job", "ns", "oneshot_jobs_per_s@svc_cold"},
      {"svc.serve.job_latency_p50_ms", "ms", "jobs_per_s@svc_cold"},
      {"svc.serve.job_latency_p99_ms", "ms", "jobs_per_s@svc_cold"},
      {"sim.events_per_job", "count", "events_per_s@sim_sweep"},
      {"svc.bytes_out_per_job", "B", "jobs_per_s@svc_warm"},
      {"trace.overhead", "ratio", "(traced run over untraced run)"},
      {"host.reference_events_per_s", "1/s",
       "(every end-to-end figure is scaled by 2e7 over this)"},
  };
  return defs;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace

void replay_layers(const LayerInputs& in, Spans& spans,
                   std::vector<std::string>& violations) {
  // -- sim.engine: the event heap with no memory system attached ----------
  for (int round = 0; round < 5; ++round) {
    constexpr int kThreads = 64;
    constexpr int kSteps = 4000;
    armbar::sim::Engine eng;
    eng.reserve(kThreads, kThreads * 2);
    for (int t = 0; t < kThreads; ++t) eng.spawn(delay_chain(eng, t, kSteps));
    const std::int64_t t0 = now_ns();
    eng.run();
    spans.add("sim.engine.run", t0, now_ns() - t0, eng.events_processed());
  }

  // -- topo.resolve: machine tables, by name ------------------------------
  std::map<std::string, armbar::topo::Machine> machines;
  for (const std::string& name : registry_machines())
    for (int round = 0; round < 3; ++round)
      spans.time("topo.resolve." + name, 1, [&] {
        machines.insert_or_assign(name, armbar::topo::machine_by_name(name));
      });

  // -- fault.plan_build: every fault shape the cold stream uses -----------
  bool plans_active = true;
  for (const std::string& name : in.machines) {
    const armbar::topo::Machine& m = machines.at(name);
    for (const armbar::fault::FaultSpec& f : fault_variants())
      batched(spans, "fault.plan_build", 100, [&] {
        for (int i = 0; i < 100; ++i) {
          const armbar::fault::Plan plan(f, m.num_cores(), m.num_layers());
          plans_active = plans_active && plan.active();
        }
      });
  }

  // -- simulations: plain / traced / neutral-faulted, and SweepDriver -----
  std::vector<svc::JobSpec> hier_specs;
  for (const GridCell& c : sweep_grid())
    if (c.hier) hier_specs.push_back(to_spec(c));
  const bool cells_have_hier =
      std::any_of(in.cells.begin(), in.cells.end(),
                  [](const svc::JobSpec& s) { return s.machine == "hier1024"; });
  std::vector<Prepared> sims;
  const auto prepare = [&](const svc::JobSpec& spec, bool in_stream) {
    const armbar::topo::Machine& m = machines.at(spec.machine);
    sims.push_back({&m,
                    simbar::sim_factory(armbar::algo_from_string(spec.algo),
                                        {.cluster_size = m.cluster_size()}),
                    service_cfg(spec, m), spec.machine == "hier1024",
                    in_stream, &spec});
  };
  for (const svc::JobSpec& s : in.cells) prepare(s, true);
  if (!cells_have_hier)
    for (const svc::JobSpec& s : hier_specs) prepare(s, false);

  std::map<const armbar::topo::Machine*, armbar::fault::Plan> neutral;
  for (const Prepared& p : sims)
    neutral.try_emplace(p.machine, armbar::fault::Plan::neutral(
                                       p.machine->num_cores(),
                                       p.machine->num_layers()));

  std::vector<simbar::SweepJob> driver_jobs;
  for (const Prepared& p : sims)
    driver_jobs.push_back({p.machine, p.factory, p.cfg});
  const simbar::SweepDriver driver(1);

  std::vector<armbar::obs::MetricsReport> reports;
  std::deque<armbar::fault::Plan> plans;
  // Each configuration runs back to back over all cells, so the plain
  // loop and SweepDriver::run over the same jobs see the same caches.
  const auto measure_all = [&](const char* name, bool traced,
                               bool faulted) {
    for (const Prepared& p : sims) {
      if (p.hier && (traced || faulted)) continue;
      simbar::SimRunConfig cfg = p.cfg;
      if (faulted) cfg.fault = &neutral.at(p.machine);
      armbar::sim::Tracer tracer(0);
      const std::int64_t t0 = now_ns();
      const simbar::SimResult r = simbar::measure_barrier(
          *p.machine, p.factory, cfg, traced ? &tracer : nullptr);
      spans.add(p.hier ? "simbar.measure.hier" : name, t0, now_ns() - t0,
                r.events_processed);
    }
  };
  for (int round = 0; round < 2; ++round) {
    measure_all("simbar.measure.plain", false, false);
    spans.time("simbar.sweep.run", 1, [&] { (void)driver.run(driver_jobs); });
    measure_all("simbar.measure.traced", true, false);
    measure_all("simbar.measure.faulted", false, true);
  }

  // -- svc.compute: what compute_cell does per cache miss -----------------
  for (const Prepared& p : sims) {
    if (!p.in_stream) continue;
    simbar::SimRunConfig cfg = p.cfg;
    if (p.spec->fault.any()) {
      plans.emplace_back(p.spec->fault, p.machine->num_cores(),
                         p.machine->num_layers());
      cfg.fault = &plans.back();
    }
    armbar::sim::Tracer tracer(0);
    const std::int64_t t0 = now_ns();
    const simbar::SimResult r =
        simbar::measure_barrier(*p.machine, p.factory, cfg, &tracer);
    spans.time("obs.make_metrics", 1, [&] {
      reports.push_back(armbar::obs::make_metrics(*p.machine, cfg, r, tracer));
    });
    spans.add("svc.compute", t0, now_ns() - t0, 1);
  }

  // -- service layers on the stream: parse, cache key, cache --------------
  std::vector<svc::JobSpec> specs(in.stream.size());
  batched(spans, "svc.parse", in.stream.size(), [&] {
    for (std::size_t i = 0; i < in.stream.size(); ++i)
      specs[i] = svc::parse_job_line(in.stream[i]);
  });
  std::vector<std::string> keys(specs.size());
  batched(spans, "svc.cache_key", specs.size(), [&] {
    for (std::size_t i = 0; i < specs.size(); ++i)
      keys[i] = svc::cache_key(specs[i]);
  });
  std::vector<std::string> cell_keys;
  for (const svc::JobSpec& s : in.cells) cell_keys.push_back(svc::cache_key(s));
  const auto entry = std::make_shared<const svc::CachedResult>();
  bool lookups_right = true;
  std::int64_t spent = 0;
  do {
    // A cold stream looks each key up before it is inserted (a miss); a
    // warm one finds every key already cached.
    svc::ResultCache cache;
    if (in.warm)
      spent += spans.time("svc.cache.insert", cell_keys.size(), [&] {
        for (const std::string& k : cell_keys) cache.insert(k, entry);
      });
    std::size_t found = 0;
    spent += spans.time("svc.cache.find", keys.size(), [&] {
      for (const std::string& k : keys) found += cache.find(k) != nullptr;
    });
    lookups_right = lookups_right && found == (in.warm ? keys.size() : 0);
    if (!in.warm)
      spent += spans.time("svc.cache.insert", cell_keys.size(), [&] {
        for (const std::string& k : cell_keys) cache.insert(k, entry);
      });
  } while (spent < 2 * kMinBatchNs);

  if (!plans_active) violations.push_back("a fault shape built an inert plan");
  if (!lookups_right) violations.push_back("cache lookups found wrong keys");

  // -- obs.aggregate: the summary fold over per-job reports ---------------
  batched(spans, "obs.aggregate", reports.size(),
          [&] { (void)armbar::obs::aggregate(reports); });
}

std::vector<Metric> layer_metrics(const LayerInputs& in, const Spans& spans,
                                  const TracedTotals& t) {
  std::map<std::string, double> v;
  const auto per = [&](const std::string& span) {
    return spans.ns_per_call(span);
  };

  v["sim.engine.events_per_s"] = 1e9 / per("sim.engine.run");
  const double plain = per("simbar.measure.plain");
  v["simbar.measure.plain_ns_per_event"] = plain;
  v["simbar.measure.hier_ns_per_event"] = per("simbar.measure.hier");
  v["simbar.measure.traced_overhead"] = per("simbar.measure.traced") / plain;
  v["simbar.measure.faulted_overhead"] = per("simbar.measure.faulted") / plain;
  const std::int64_t measured = spans.total_ns("simbar.measure.plain") +
                                spans.total_ns("simbar.measure.hier");
  v["simbar.sweep.driver_overhead_s"] =
      static_cast<double>(spans.total_ns("simbar.sweep.run") - measured) /
      static_cast<double>(spans.total_count("simbar.sweep.run")) / 1e9;

  double resolve = 0.0;
  for (const std::string& m : registry_machines()) {
    const double s = per("topo.resolve." + m) / 1e9;
    v["topo.resolve_s." + metric_suffix(m)] = s;
    if (std::find(in.machines.begin(), in.machines.end(), m) !=
        in.machines.end())
      resolve += s;
  }
  v["topo.resolve_s"] = resolve;

  const double plan = per("fault.plan_build");
  const double make_metrics = per("obs.make_metrics");
  const double parse = per("svc.parse");
  const double key = per("svc.cache_key");
  const double find = per("svc.cache.find");
  const double insert = per("svc.cache.insert");
  const double aggregate = per("obs.aggregate");
  v["fault.plan_build_ns"] = plan;
  v["obs.make_metrics_ns"] = make_metrics;
  v["svc.parse_ns"] = parse;
  v["svc.cache_key_ns"] = key;
  v["svc.cache.find_ns"] = find;
  v["svc.cache.insert_ns"] = insert;
  v["obs.aggregate_ns_per_report"] = aggregate;

  const double lookups = static_cast<double>(t.serve_hits + t.serve_misses);
  const double hit_ratio =
      lookups > 0.0 ? static_cast<double>(t.serve_hits) / lookups : 0.0;
  v["svc.cache.hit_ratio"] = hit_ratio;
  v["svc.serve.retained_bytes_per_job"] = t.retained_bytes_per_job;

  // Residual self times: a path's wall per job minus the replayed cost of
  // the layers it calls.  Worker-side layers run on `workers` threads at
  // once; the summary fold runs on the calling thread.
  const double faulted_share =
      in.cells.empty()
          ? 0.0
          : static_cast<double>(std::count_if(
                in.cells.begin(), in.cells.end(),
                [](const armbar::svc::JobSpec& s) { return s.fault.any(); })) /
                static_cast<double>(in.cells.size());
  const double compute = per("svc.compute") + faulted_share * plan;
  const double serve_ns =
      t.serve_wall_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(
                                 t.serve_jobs, 1));
  const double worker_ns =
      parse + key + find + (1.0 - hit_ratio) * (insert + compute);
  v["svc.serve.self_ns_per_job"] =
      serve_ns - worker_ns / in.serve_workers - aggregate;
  const double oneshot_ns =
      t.oneshot_wall_s * 1e9 /
      static_cast<double>(std::max<std::uint64_t>(t.oneshot_jobs, 1));
  v["svc.oneshot.self_ns_per_job"] =
      oneshot_ns - parse - compute / in.oneshot_workers - aggregate;

  v["svc.serve.job_latency_p50_ms"] = quantile(t.latency_ms, 0.50);
  v["svc.serve.job_latency_p99_ms"] = quantile(t.latency_ms, 0.99);
  v["sim.events_per_job"] =
      static_cast<double>(t.main_events) /
      static_cast<double>(std::max<std::uint64_t>(t.main_jobs, 1));
  v["svc.bytes_out_per_job"] =
      static_cast<double>(t.serve_bytes) /
      static_cast<double>(std::max<std::uint64_t>(t.serve_jobs, 1));
  v["trace.overhead"] = t.trace_overhead;
  v["host.reference_events_per_s"] = t.reference_rate;

  std::vector<Metric> out;
  for (const LayerDef& d : layer_defs()) out.push_back({d.name, v.at(d.name), d.unit});
  return out;
}

std::string layer_table(const std::string& workload,
                        const std::vector<Metric>& layers,
                        const std::vector<Metric>& end_to_end) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-36s %14s %-6s  %-28s %s\n",
                "per-layer metric", "value", "unit", "moves (this workload)",
                "untraced value");
  out += buf;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const LayerDef& d = layer_defs()[i];
    // The end-to-end metrics this layer moves on this workload, else the
    // full mapping.
    std::string moves;
    const Metric* e2e = nullptr;
    const std::string all = d.moves;
    std::size_t pos = 0;
    while (pos < all.size()) {
      const std::size_t end = std::min(all.find(' ', pos), all.size());
      const std::string item = all.substr(pos, end - pos);
      const std::size_t at = item.find('@');
      if (at != std::string::npos && item.substr(at + 1) == workload) {
        moves = item.substr(0, at);
        for (const Metric& m : end_to_end)
          if (m.name == moves) e2e = &m;
      }
      pos = end + 1;
    }
    if (moves.empty()) moves = all;
    if (e2e != nullptr)
      std::snprintf(buf, sizeof buf, "%-36s %14.6g %-6s  %-28s %.6g %s\n",
                    layers[i].name.c_str(), layers[i].value,
                    layers[i].unit.c_str(), moves.c_str(), e2e->value,
                    e2e->unit.c_str());
    else
      std::snprintf(buf, sizeof buf, "%-36s %14.6g %-6s  %s\n",
                    layers[i].name.c_str(), layers[i].value,
                    layers[i].unit.c_str(), moves.c_str());
    out += buf;
  }
  return out;
}

}  // namespace perfbench
