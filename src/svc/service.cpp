#include "armbar/svc/service.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <deque>
#include <istream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "../obs/json_util.hpp"
#include "armbar/fault/plan.hpp"
#include "armbar/obs/aggregate.hpp"
#include "armbar/obs/metrics.hpp"
#include "armbar/sim/error.hpp"
#include "armbar/sim/trace.hpp"
#include "armbar/simbar/sim_barriers.hpp"
#include "armbar/simbar/sweep.hpp"
#include "armbar/svc/spsc_ring.hpp"
#include "armbar/topo/placement.hpp"
#include "armbar/topo/platforms.hpp"
#include "armbar/util/backoff.hpp"
#include "armbar/util/prng.hpp"

namespace armbar::svc {

namespace {

/// Transient-retry pacing, matching the sweep driver's schedule
/// (docs/SERVICE.md §retries).
constexpr double kRetryBaseMs = 1.0;
constexpr double kRetryCapMs = 50.0;

// -- rendering (shared by the daemon and one-shot paths; the
// byte-identity guarantee is exactly "both paths call these") ------------

/// Result-line tail (everything after the per-occurrence job index).
std::string render_result_tail(const JobSpec& spec,
                               const simbar::SimResult& result) {
  namespace d = obs::detail;
  std::ostringstream os = d::json_stream();
  os << ", \"machine\": \"" << d::escaped(spec.machine) << "\", \"barrier\": \""
     << d::escaped(result.barrier_name) << "\", \"threads\": " << spec.threads
     << ", \"iterations\": " << spec.iterations << ", \"mean_overhead_ns\": "
     << d::json_num(result.mean_overhead_ns)
     << ", \"events\": " << result.events_processed << "}";
  return os.str();
}

std::string render_error_tail(const std::string& kind,
                              const std::string& message,
                              const std::string& diagnostics) {
  namespace d = obs::detail;
  std::ostringstream os = d::json_stream();
  os << ", \"error\": {\"kind\": \"" << d::escaped(kind)
     << "\", \"message\": \"" << d::escaped(message)
     << "\", \"diagnostics\": \"" << d::escaped(diagnostics) << "\"}}";
  return os.str();
}

std::string oversized_tail(std::size_t max_bytes) {
  return render_error_tail("parse-error",
                           "line exceeds max_line_bytes (" +
                               std::to_string(max_bytes) + " bytes)",
                           "");
}

/// One result line, assembled in the caller's reused @p buf and handed
/// to the stream in a single write.  The index goes through
/// std::to_chars, never through `out <<`: a caller's stream imbued with a
/// grouping locale would otherwise print job 1000 as "1.000".
void emit_line(std::ostream& out, std::string& buf, std::uint64_t seq,
               std::string_view tail) {
  static constexpr std::string_view kHead = "{\"job\": ";
  char index[24];
  const auto r = std::to_chars(index, index + sizeof index, seq);
  buf.assign(kHead);
  buf.append(index, r.ptr);
  buf.append(tail);
  buf.push_back('\n');
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

/// Run @p fn under the sweep layer's error taxonomy: on failure, @p out
/// becomes an error entry whose kind/message/diagnostics match what
/// SweepDriver::run_*_isolated reports for the same exception (so the
/// daemon and the driver-based one-shot path classify identically).
/// The transient/deadline flags mirror the driver's retry policy:
/// wall-deadline aborts and unclassified exceptions are host state and
/// may be retried, deterministic verdicts never are.
template <typename Fn>
bool classify_into(CachedResult& out, Fn&& fn) {
  try {
    fn();
    return true;
  } catch (const sim::DeadlockError& e) {
    out.failed = true;
    out.transient = sim::DeadlockError::transient(e.kind());
    out.deadline = e.kind() == sim::DeadlockError::Kind::kWallDeadline;
    out.tail = render_error_tail(sim::DeadlockError::kind_name(e.kind()),
                                 e.what(), sim::describe(e));
  } catch (const std::invalid_argument& e) {
    out.failed = true;
    out.tail = render_error_tail("invalid-argument", e.what(), "");
  } catch (const std::logic_error& e) {
    out.failed = true;
    out.tail = render_error_tail("invalid-argument", e.what(), "");
  } catch (const std::exception& e) {
    out.failed = true;
    out.transient = true;
    out.tail = render_error_tail("error", e.what(), "");
  } catch (...) {
    out.failed = true;
    out.transient = true;
    out.tail = render_error_tail("error", "unknown exception", "");
  }
  return false;
}

// -- job preparation -------------------------------------------------------

simbar::SimRunConfig make_cfg(const JobSpec& spec,
                              const topo::Machine& machine) {
  simbar::SimRunConfig cfg;
  cfg.threads = spec.threads;
  cfg.iterations = spec.iterations;
  cfg.warmup = spec.effective_warmup();
  if (spec.placement == "scatter")
    cfg.core_of_thread = topo::scatter_placement(machine, spec.threads);
  else if (spec.placement == "random")
    cfg.core_of_thread = topo::random_placement(machine, spec.threads);
  else if (spec.placement != "compact")
    throw std::invalid_argument("unknown placement " + spec.placement);
  return cfg;
}

simbar::SimBarrierFactory make_factory(const JobSpec& spec,
                                       const topo::Machine& machine) {
  return simbar::sim_factory(algo_from_string(spec.algo),
                             {.cluster_size = machine.cluster_size()});
}

/// Machine pool: every named topology (and its core-pair table) is
/// constructed once per service and served by stable const reference for
/// the rest of the process.  The mutex is taken once per computed cell,
/// never on a cache hit; a cell's simulation costs thousands of times
/// more than the uncontended lock.
class MachineRegistry {
 public:
  const topo::Machine& get(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = machines_.find(name);
    if (it != machines_.end()) return *it->second;
    auto m = std::make_unique<topo::Machine>(topo::machine_by_name(name));
    const topo::Machine& ref = *m;
    machines_.emplace(name, std::move(m));
    return ref;
  }

 private:
  std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<const topo::Machine>>
      machines_;
};

/// Compute one cell end to end (resolve, simulate, render).  Never
/// throws: failures become error entries via classify_into.  A nonzero
/// @p deadline_ms arms the engine's wall-clock watchdog for this run.
std::shared_ptr<CachedResult> compute_cell(const JobSpec& spec,
                                           MachineRegistry& registry,
                                           double deadline_ms) {
  auto entry = std::make_shared<CachedResult>();
  classify_into(*entry, [&] {
    const topo::Machine& machine = registry.get(spec.machine);
    const simbar::SimRunConfig base_cfg = make_cfg(spec, machine);
    const simbar::SimBarrierFactory factory = make_factory(spec, machine);
    const fault::Plan plan =
        spec.fault.any() ? fault::Plan(spec.fault, machine.num_cores(),
                                       machine.num_layers())
                         : fault::Plan();
    simbar::SimRunConfig cfg = base_cfg;
    if (plan.active()) cfg.fault = &plan;
    cfg.wall_deadline_ms = deadline_ms;
    sim::Tracer tracer(0);  // exact counters, no event log — as the
                            // driver's metrics mode defaults
    const simbar::SimResult result =
        simbar::measure_barrier(machine, factory, cfg, &tracer);
    entry->report = obs::make_metrics(machine, cfg, result, tracer);
    entry->tail = render_result_tail(spec, result);
    entry->summary_row = obs::render_row(entry->report);
  });
  return entry;
}

/// Pause before retrying @p seq after @p failed_attempt: exponential
/// backoff with full jitter, seeded per (job, attempt) like the sweep
/// driver's retry_pause so the schedule is reproducible.
void retry_pause(std::uint64_t seq, int failed_attempt) {
  util::Xoshiro256 rng(0x9e3779b97f4a7c15ull ^
                       (seq * 0x100000001b3ull +
                        static_cast<std::uint64_t>(failed_attempt)));
  const double ms = util::backoff_full_jitter_ms(
      failed_attempt, kRetryBaseMs, kRetryCapMs, rng.uniform01());
  if (ms > 0.0)
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<std::int64_t>(ms * 1000.0)));
}

/// Bounded line reader.  Reads up to the next '\n' or EOF; characters
/// beyond the bound are swallowed (the stream stays line-synced) and the
/// line is reported kOversized with only the prefix kept — enough to
/// tell a comment from a job.  EOF with no characters read is kEof; EOF
/// mid-line yields the partial line exactly once, like std::getline.
/// istream::getline and ignore scan the stream buffer's get area in bulk,
/// and the line lands in one buffer sized once, so reading a line
/// allocates nothing.  While the reader lives, the stream is untied: a
/// tied output stream (std::cin's std::cout) would otherwise be flushed
/// before every line.
enum class LineStatus { kEof, kLine, kOversized };

class LineReader {
 public:
  LineReader(std::istream& in, std::size_t max_bytes)
      : in_(in),
        tie_(in.tie(nullptr)),
        size_(max_bytes + 1),
        buf_(std::make_unique_for_overwrite<char[]>(size_)) {}
  ~LineReader() { in_.tie(tie_); }
  LineReader(const LineReader&) = delete;
  LineReader& operator=(const LineReader&) = delete;

  LineStatus read() {
    len_ = 0;
    if (!in_.good()) return LineStatus::kEof;
    in_.getline(buf_.get(), static_cast<std::streamsize>(size_));
    const auto got = static_cast<std::size_t>(in_.gcount());
    if (in_.bad() || got == 0) return LineStatus::kEof;
    if (in_.fail()) {
      // The bound filled before a '\n': keep the prefix, drop the rest.
      in_.clear(in_.rdstate() & ~std::ios::failbit);
      in_.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
      len_ = got;
      return LineStatus::kOversized;
    }
    len_ = in_.eof() ? got : got - 1;  // gcount counts the '\n'
    return LineStatus::kLine;
  }

  std::string_view line() const { return {buf_.get(), len_}; }

 private:
  std::istream& in_;
  std::ostream* tie_;
  std::size_t size_;
  std::unique_ptr<char[]> buf_;  // uninitialized: only read up to len_
  std::size_t len_ = 0;
};

/// Skip the non-job stream lines the service contract allows: blank
/// lines and '#' comments.
bool is_job_line(std::string_view line) {
  const auto first = line.find_first_not_of(" \t\r");
  return first != std::string_view::npos && line[first] != '#';
}

/// An oversized line whose kept prefix opens a comment is still a
/// comment (skipped); anything else oversized becomes a parse-error
/// record — never a silent drop.
bool is_comment_prefix(std::string_view line) {
  const auto first = line.find_first_not_of(" \t\r");
  return first != std::string_view::npos && line[first] == '#';
}

}  // namespace

// -- the daemon pipeline ---------------------------------------------------

struct SweepService::Impl {
  struct Request {
    std::uint64_t seq = 0;
    std::string line;
  };

  /// One reorder-window slot: a worker publishes the finished entry with
  /// a release store on `ready`; the intake/emitter thread consumes it
  /// and recycles the slot.  Intake admits job seq only once seq - W has
  /// been emitted, so a slot is never written before it was drained.
  struct Slot {
    std::atomic<bool> ready{false};
    std::shared_ptr<const CachedResult> entry;
  };

  /// Requests travel by value: the ring exchanges them with its slots, so
  /// line buffers circulate between intake and workers without allocation.
  using Ring = SpscRing<Request>;

  /// The ring is behind shared_ptr so a superseded worker (which still
  /// holds a reference from its spawn) can be abandoned without racing
  /// the replacement ring installed for its successor.
  struct Worker {
    explicit Worker(std::size_t ring_capacity)
        : ring(std::make_shared<Ring>(ring_capacity)) {}
    std::shared_ptr<Ring> ring;
    std::thread thread;
    /// Bumped (under pub_mu) each time the worker is superseded; the
    /// thread's captured epoch going stale tells it to discard its work
    /// and exit, and gates publication so a zombie never double-emits.
    std::atomic<std::uint64_t> epoch{0};
    /// Set by the thread itself (under pub_mu, epoch-checked) when an
    /// exception escapes a job: the supervisor joins and respawns it.
    std::atomic<bool> dead{false};
    /// steady_clock ns when the current job started; 0 = idle.  Only
    /// maintained when supervision is on.
    std::atomic<std::int64_t> busy_since_ns{0};
  };

  explicit Impl(ServiceOptions o)
      : opts(o),
        nworkers(o.workers > 0
                     ? o.workers
                     : static_cast<int>(std::max(
                           1u, std::thread::hardware_concurrency()))),
        supervised(o.heartbeat_ms > 0.0 ||
                   static_cast<bool>(o.chaos.before_job)),
        cache(o.cache_shards) {
    if (opts.max_attempts < 1)
      throw std::invalid_argument("ServiceOptions: max_attempts must be >= 1");
    if (opts.max_requeues < 0)
      throw std::invalid_argument("ServiceOptions: max_requeues must be >= 0");
    if (!(opts.job_deadline_ms >= 0.0))
      throw std::invalid_argument(
          "ServiceOptions: job_deadline_ms must be >= 0");
    if (!(opts.heartbeat_ms >= 0.0))
      throw std::invalid_argument("ServiceOptions: heartbeat_ms must be >= 0");
    if (opts.max_line_bytes < 16)
      throw std::invalid_argument(
          "ServiceOptions: max_line_bytes must be >= 16");
    std::size_t window = 1;
    const std::size_t want =
        static_cast<std::size_t>(nworkers) * std::max<std::size_t>(
                                                 opts.ring_capacity, 2) *
        2;
    while (window < want) window <<= 1;
    slots = std::vector<Slot>(window);
    workers.reserve(static_cast<std::size_t>(nworkers));
    for (int w = 0; w < nworkers; ++w)
      workers.push_back(std::make_unique<Worker>(opts.ring_capacity));
    for (int w = 0; w < nworkers; ++w)
      start_worker(*workers[static_cast<std::size_t>(w)]);
  }

  ~Impl() {
    stop.store(true, std::memory_order_release);
    for (auto& w : workers)
      if (w->thread.joinable()) w->thread.join();
    for (std::thread& t : zombies)
      if (t.joinable()) t.join();
  }

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void start_worker(Worker& w) {
    auto ring = w.ring;
    const std::uint64_t my_epoch = w.epoch.load(std::memory_order_relaxed);
    w.thread =
        std::thread([this, &w, ring, my_epoch] { worker_loop(w, *ring,
                                                             my_epoch); });
  }

  void worker_loop(Worker& self, Ring& ring, std::uint64_t my_epoch) {
    Request req;
    int idle = 0;
    for (;;) {
      while (!ring.try_pop(req)) {
        if (stop.load(std::memory_order_acquire)) return;
        if (supervised &&
            self.epoch.load(std::memory_order_acquire) != my_epoch)
          return;  // superseded while idle: a fresh worker owns the name
        // Spin briefly, then yield, then sleep: a daemon waiting for the
        // next job batch must not burn a core.
        if (idle < 64) {
          ++idle;
          util::cpu_relax();
        } else if (idle < 256) {
          ++idle;
          std::this_thread::yield();
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
      idle = 0;
      if (supervised) {
        if (self.epoch.load(std::memory_order_acquire) != my_epoch)
          return;  // superseded: this request was already re-queued
        self.busy_since_ns.store(now_ns(), std::memory_order_release);
      }
      try {
        if (opts.chaos.before_job) opts.chaos.before_job(req.seq);
        process(req, self, my_epoch);
      } catch (...) {
        // An escaped exception (in practice: a chaos-hook kill) ends this
        // worker.  Mark it dead — epoch-checked under pub_mu so a zombie
        // that crashes late cannot condemn its already-running successor.
        std::lock_guard<std::mutex> lk(pub_mu);
        if (self.epoch.load(std::memory_order_relaxed) == my_epoch)
          self.dead.store(true, std::memory_order_release);
        return;
      }
      if (supervised &&
          self.epoch.load(std::memory_order_acquire) == my_epoch)
        self.busy_since_ns.store(0, std::memory_order_release);
    }
  }

  void process(const Request& req, Worker& self, std::uint64_t my_epoch) {
    std::shared_ptr<const CachedResult> entry;
    try {
      const JobSpec spec = parse_job_line(req.line);
      const std::string key = cache_key(spec);
      if (opts.use_cache) entry = cache.find(key);
      if (!entry) {
        std::shared_ptr<CachedResult> computed;
        for (int attempt = 1;; ++attempt) {
          computed = compute_cell(spec, registry, opts.job_deadline_ms);
          if (!(computed->failed && computed->transient) ||
              attempt >= opts.max_attempts)
            break;
          retries.fetch_add(1, std::memory_order_relaxed);
          retry_pause(req.seq, attempt);
        }
        if (computed->failed && computed->deadline)
          deadline_errors.fetch_add(1, std::memory_order_relaxed);
        // Transient verdicts are host state, not cell state: caching one
        // would replay it for every later occurrence of the cell and
        // break byte-identity with the one-shot path, which recomputes
        // each occurrence.
        if (opts.use_cache && !(computed->failed && computed->transient))
          cache.insert(key, computed);
        entry = std::move(computed);
      }
    } catch (const std::exception& e) {
      // Only parse_job_line throws to here; everything later is
      // classified inside compute_cell.
      auto err = std::make_shared<CachedResult>();
      err->failed = true;
      err->tail = render_error_tail("parse-error", e.what(), "");
      entry = std::move(err);
    }
    publish(req.seq, std::move(entry), self, my_epoch);
  }

  void publish(std::uint64_t seq, std::shared_ptr<const CachedResult> entry,
               Worker& self, std::uint64_t my_epoch) {
    Slot& slot = slots[seq & (slots.size() - 1)];
    if (supervised) {
      // Epoch-guarded: a superseded worker's late result is discarded —
      // the supervisor already re-queued (or re-reported) this seq.
      std::lock_guard<std::mutex> lk(pub_mu);
      if (self.epoch.load(std::memory_order_relaxed) != my_epoch) return;
      slot.entry = std::move(entry);
      slot.ready.store(true, std::memory_order_release);
    } else {
      slot.entry = std::move(entry);
      slot.ready.store(true, std::memory_order_release);
    }
  }

  ServiceOptions opts;
  int nworkers;
  /// Supervision (epoch guards, busy tracking, pub_mu on publish) is paid
  /// only when stall detection or chaos hooks are requested; the default
  /// configuration keeps the original lock-free publish path.
  bool supervised;
  ResultCache cache;
  MachineRegistry registry;
  std::vector<Slot> slots;
  std::vector<std::unique_ptr<Worker>> workers;
  /// Serializes publication against supersession when supervised.
  std::mutex pub_mu;
  /// Threads of superseded-but-alive (stalled) workers; joined at
  /// destruction.  Touched only by the intake thread and the destructor.
  std::vector<std::thread> zombies;
  std::atomic<bool> stop{false};
  std::atomic<bool> stop_requested{false};
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> deadline_errors{0};
};

SweepService::SweepService(ServiceOptions opts)
    : impl_(std::make_unique<Impl>(opts)) {}

SweepService::~SweepService() = default;

int SweepService::workers() const noexcept { return impl_->nworkers; }

const ResultCache& SweepService::cache() const noexcept {
  return impl_->cache;
}

void SweepService::request_stop() noexcept {
  impl_->stop_requested.store(true, std::memory_order_release);
}

ServiceStats SweepService::serve(std::istream& in, std::ostream& out) {
  Impl& impl = *impl_;
  impl.stop_requested.store(false, std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t hits0 = impl.cache.hits();
  const std::uint64_t misses0 = impl.cache.misses();
  const std::uint64_t retries0 = impl.retries.load(std::memory_order_relaxed);
  const std::uint64_t deadline0 =
      impl.deadline_errors.load(std::memory_order_relaxed);
  const std::size_t window = impl.slots.size();
  const std::size_t mask = window - 1;
  const bool supervised = impl.supervised;
  const auto uworkers = static_cast<std::size_t>(impl.nworkers);

  std::uint64_t submitted = 0;
  std::uint64_t emitted = 0;
  std::uint64_t failed = 0;
  ServiceStats stats;
  // One shared pointer per successful job, for the summary: on a warm
  // stream these share the cache's entries, so nothing is copied.
  std::vector<std::shared_ptr<const CachedResult>> done;
  std::string out_line;  // emit_line's reused buffer

  // Supervision bookkeeping (intake-thread-private; sized only when on).
  // outstanding[w]: seqs handed to worker w, not yet published.
  // worker_of/line_of/requeue_count: per reorder-window slot, valid while
  // its seq is in flight; worker_of -1 marks a directly-published seq.
  std::vector<std::deque<std::uint64_t>> outstanding(
      supervised ? uworkers : 0);
  std::vector<int> worker_of(supervised ? window : 0, -1);
  std::vector<int> requeue_count(supervised ? window : 0, 0);
  std::vector<std::string> line_of(supervised ? window : 0);
  std::deque<std::uint64_t> requeue_q;  // orphans awaiting a new worker
  std::size_t rr = 0;                   // round-robin cursor for re-queues

  // Intake-side publication for records that never reach a worker
  // (shed, oversized, worker-lost).  The slot is free: callers run only
  // after the backpressure check admits seq into the window.
  const auto publish_direct = [&](std::uint64_t seq,
                                  std::shared_ptr<const CachedResult> e) {
    Impl::Slot& slot = impl.slots[seq & mask];
    slot.entry = std::move(e);
    slot.ready.store(true, std::memory_order_release);
  };

  const auto error_entry = [](const std::string& kind,
                              const std::string& message) {
    auto e = std::make_shared<CachedResult>();
    e->failed = true;
    e->tail = render_error_tail(kind, message, "");
    return e;
  };

  // Emit every completed result whose turn has come (in-order drain).
  const auto drain_ready = [&] {
    while (emitted < submitted) {
      Impl::Slot& slot = impl.slots[emitted & mask];
      if (!slot.ready.load(std::memory_order_acquire)) return;
      emit_line(out, out_line, emitted, slot.entry->tail);
      if (slot.entry->failed) {
        ++failed;
        slot.entry.reset();
      } else {
        done.push_back(std::move(slot.entry));
      }
      slot.ready.store(false, std::memory_order_relaxed);
      if (supervised) {
        const std::size_t idx = emitted & mask;
        const int w = worker_of[idx];
        if (w >= 0) {
          // Re-queues break per-worker FIFO order, so find-erase rather
          // than popping the front.
          auto& dq = outstanding[static_cast<std::size_t>(w)];
          const auto it = std::find(dq.begin(), dq.end(), emitted);
          if (it != dq.end()) dq.erase(it);
          worker_of[idx] = -1;
        }
      }
      ++emitted;
    }
  };

  // Replace every dead or stalled worker: bump its epoch (under pub_mu,
  // so its late publishes are discarded), recycle the thread, install a
  // fresh ring, respawn, and move its unfinished seqs to the re-queue.
  const auto supervise = [&] {
    if (!supervised) return;
    const std::int64_t now = Impl::now_ns();
    for (std::size_t w = 0; w < uworkers; ++w) {
      Impl::Worker& wk = *impl.workers[w];
      const bool dead = wk.dead.load(std::memory_order_acquire);
      bool stalled = false;
      if (!dead && impl.opts.heartbeat_ms > 0.0) {
        const std::int64_t busy =
            wk.busy_since_ns.load(std::memory_order_acquire);
        stalled = busy != 0 &&
                  static_cast<double>(now - busy) >
                      impl.opts.heartbeat_ms * 1e6;
      }
      if (!dead && !stalled) continue;
      ++stats.respawns;
      {
        std::lock_guard<std::mutex> lk(impl.pub_mu);
        wk.epoch.fetch_add(1, std::memory_order_relaxed);
      }
      // A dead worker's thread has returned (or is about to); a stalled
      // one is still running — park it with the zombies and let it exit
      // on its own when it notices the stale epoch.
      if (wk.dead.load(std::memory_order_acquire))
        wk.thread.join();
      else
        impl.zombies.push_back(std::move(wk.thread));
      wk.dead.store(false, std::memory_order_relaxed);
      wk.busy_since_ns.store(0, std::memory_order_relaxed);
      wk.ring = std::make_shared<Impl::Ring>(impl.opts.ring_capacity);
      impl.start_worker(wk);
      for (const std::uint64_t seq : outstanding[w]) {
        const std::size_t idx = seq & mask;
        if (impl.slots[idx].ready.load(std::memory_order_acquire)) {
          worker_of[idx] = -1;  // published before supersession: done
          continue;
        }
        requeue_q.push_back(seq);
      }
      outstanding[w].clear();
    }
  };

  // Hand orphaned seqs to live workers (round-robin); past the re-queue
  // budget they become worker-lost records.  Leaves seqs queued when no
  // ring has space — the caller's tick loop retries after draining.
  const auto pump_requeues = [&] {
    while (!requeue_q.empty()) {
      const std::uint64_t seq = requeue_q.front();
      const std::size_t idx = seq & mask;
      if (requeue_count[idx] >= impl.opts.max_requeues) {
        worker_of[idx] = -1;
        publish_direct(
            seq, error_entry("worker-lost",
                             "job lost its worker " +
                                 std::to_string(requeue_count[idx] + 1) +
                                 " times; re-queue budget exhausted"));
        ++stats.worker_lost;
        requeue_q.pop_front();
        continue;
      }
      Impl::Request req{seq, line_of[idx]};
      bool pushed = false;
      for (std::size_t k = 0; k < uworkers; ++k) {
        const std::size_t cand = (rr + k) % uworkers;
        Impl::Worker& cw = *impl.workers[cand];
        if (cw.dead.load(std::memory_order_acquire)) continue;
        if (!cw.ring->try_push(std::move(req))) continue;
        ++requeue_count[idx];
        ++stats.requeued;
        worker_of[idx] = static_cast<int>(cand);
        outstanding[cand].push_back(seq);
        rr = cand + 1;
        pushed = true;
        break;
      }
      if (!pushed) return;  // every live ring is full; retry next tick
      requeue_q.pop_front();
    }
  };

  const auto tick = [&] {
    drain_ready();
    supervise();
    pump_requeues();
  };

  util::SpinWait waiter;
  LineReader reader(in, impl.opts.max_line_bytes);
  Impl::Request req;  // reused: each push swaps in a recycled buffer
  for (;;) {
    if (impl.stop_requested.load(std::memory_order_acquire)) break;
    const LineStatus st = reader.read();
    if (st == LineStatus::kEof) break;
    const std::string_view line = reader.line();
    if (st == LineStatus::kOversized) {
      if (is_comment_prefix(line)) continue;
      while (submitted - emitted >= window) {
        tick();
        waiter.step();
      }
      publish_direct(submitted, [&] {
        auto e = std::make_shared<CachedResult>();
        e->failed = true;
        e->tail = oversized_tail(impl.opts.max_line_bytes);
        return e;
      }());
      ++submitted;
      drain_ready();
      continue;
    }
    if (!is_job_line(line)) continue;
    // Backpressure: never have more than one reorder window in flight.
    while (submitted - emitted >= window) {
      tick();
      waiter.step();
    }
    // Load shedding: above max_inflight, answer immediately with a shed
    // record instead of queueing (nothing is ever silently dropped).
    if (impl.opts.max_inflight > 0 &&
        submitted - emitted >= impl.opts.max_inflight) {
      publish_direct(
          submitted,
          error_entry("shed", "intake over capacity: " +
                                  std::to_string(submitted - emitted) +
                                  " jobs in flight (max_inflight " +
                                  std::to_string(impl.opts.max_inflight) +
                                  ")"));
      ++stats.shed;
      ++submitted;
      drain_ready();
      continue;
    }
    req.seq = submitted;
    req.line.assign(line);
    const std::size_t target = submitted % uworkers;
    const std::size_t idx = submitted & mask;
    if (supervised) line_of[idx].assign(line);
    // Re-fetch the ring each attempt: supervise() may have respawned the
    // target with a fresh one.
    while (!impl.workers[target]->ring->try_push(std::move(req))) {
      tick();
      waiter.step();
    }
    if (supervised) {
      worker_of[idx] = static_cast<int>(target);
      requeue_count[idx] = 0;
      outstanding[target].push_back(submitted);
    }
    waiter.reset();
    ++submitted;
    tick();
  }
  // Graceful drain: intake is closed; finish everything in flight and
  // flush the reorder window before the summary.
  while (emitted < submitted) {
    tick();
    waiter.step();
  }

  {
    // Only the machine totals are folded here; every row was rendered
    // once, when its cell was computed.
    std::vector<const obs::MetricsReport*> reports;
    std::vector<std::string_view> rows;
    reports.reserve(done.size());
    rows.reserve(done.size());
    for (const auto& e : done) {
      reports.push_back(&e->report);
      rows.push_back(e->summary_row);
    }
    obs::write_json(out, obs::aggregate_totals(reports), rows);
    out.put('\n');
  }

  stats.jobs = submitted;
  stats.failed = failed;
  stats.cache_hits = impl.cache.hits() - hits0;
  stats.cache_misses = impl.cache.misses() - misses0;
  stats.retries = impl.retries.load(std::memory_order_relaxed) - retries0;
  stats.deadline_errors =
      impl.deadline_errors.load(std::memory_order_relaxed) - deadline0;
  stats.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  return stats;
}

// -- the batch reference path ----------------------------------------------

ServiceStats SweepService::run_oneshot(std::istream& in, std::ostream& out,
                                       int workers) {
  const auto t0 = std::chrono::steady_clock::now();

  struct LineSlot {
    std::optional<JobSpec> spec;       // engaged iff prepare succeeded
    std::string tail;                  // pre-filled for parse/prepare errors
    bool failed = false;
    std::size_t driver_index = 0;      // into the SweepJob list
  };

  MachineRegistry registry;
  std::deque<fault::Plan> plans;  // stable addresses for cfg.fault
  std::vector<LineSlot> lines;
  std::vector<simbar::SweepJob> jobs;

  LineReader reader(in, ServiceOptions::kDefaultMaxLineBytes);
  for (;;) {
    const LineStatus st = reader.read();
    if (st == LineStatus::kEof) break;
    const std::string_view line = reader.line();
    if (st == LineStatus::kOversized) {
      if (is_comment_prefix(line)) continue;
      LineSlot slot;
      slot.failed = true;
      slot.tail = oversized_tail(ServiceOptions::kDefaultMaxLineBytes);
      lines.push_back(std::move(slot));
      continue;
    }
    if (!is_job_line(line)) continue;
    LineSlot slot;
    JobSpec spec;
    CachedResult scratch;
    bool parsed = false;
    try {
      spec = parse_job_line(std::string(line));
      parsed = true;
    } catch (const std::exception& e) {
      slot.failed = true;
      slot.tail = render_error_tail("parse-error", e.what(), "");
    }
    if (parsed) {
      const bool prepared = classify_into(scratch, [&] {
        const topo::Machine& machine = registry.get(spec.machine);
        simbar::SimRunConfig cfg = make_cfg(spec, machine);
        const simbar::SimBarrierFactory factory = make_factory(spec, machine);
        plans.push_back(spec.fault.any()
                            ? fault::Plan(spec.fault, machine.num_cores(),
                                          machine.num_layers())
                            : fault::Plan());
        if (plans.back().active()) cfg.fault = &plans.back();
        slot.driver_index = jobs.size();
        jobs.push_back(simbar::SweepJob{&machine, factory, cfg});
        slot.spec = spec;
      });
      if (!prepared) {
        slot.failed = true;
        slot.tail = std::move(scratch.tail);
      }
    }
    lines.push_back(std::move(slot));
  }

  const simbar::SweepDriver driver(workers);
  const simbar::MeteredOutcome outcome =
      driver.run_with_metrics_isolated(jobs, /*trace_capacity=*/0,
                                       /*max_attempts=*/1);
  // JobErrors arrive ascending by job index; walk them with a cursor.
  std::size_t err_cursor = 0;

  std::uint64_t failed = 0;
  std::string out_line;
  std::vector<const obs::MetricsReport*> reports;  // into outcome.results
  for (std::size_t i = 0; i < lines.size(); ++i) {
    LineSlot& slot = lines[i];
    if (slot.spec) {
      const auto& run = outcome.results[slot.driver_index];
      if (run) {
        slot.tail = render_result_tail(*slot.spec, run->result);
        reports.push_back(&run->report);
      } else {
        while (err_cursor < outcome.errors.size() &&
               outcome.errors[err_cursor].job_index < slot.driver_index)
          ++err_cursor;
        slot.failed = true;
        if (err_cursor < outcome.errors.size() &&
            outcome.errors[err_cursor].job_index == slot.driver_index) {
          const simbar::JobError& e = outcome.errors[err_cursor];
          slot.tail = render_error_tail(e.kind, e.message, e.diagnostics);
        } else {
          slot.tail = render_error_tail("error", "missing sweep result", "");
        }
      }
    }
    if (slot.failed) ++failed;
    emit_line(out, out_line, i, slot.tail);
  }

  obs::write_json(out, obs::aggregate(reports));
  out.put('\n');

  ServiceStats stats;
  stats.jobs = lines.size();
  stats.failed = failed;
  stats.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  return stats;
}

}  // namespace armbar::svc
