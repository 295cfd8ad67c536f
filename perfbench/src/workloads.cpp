#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <istream>
#include <map>
#include <memory>
#include <ostream>
#include <stdexcept>

#include "armbar/simbar/sim_barriers.hpp"
#include "armbar/simbar/sweep.hpp"
#include "armbar/svc/service.hpp"
#include "armbar/topo/platforms.hpp"
#include "cells.hpp"
#include "io.hpp"
#include "layers.hpp"
#include "reference.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

namespace svc = armbar::svc;
namespace simbar = armbar::simbar;

/// Service workers: with the intake thread, three threads on a 4-CPU host.
constexpr int kServeWorkers = 2;
/// Golden checksums of the grid (perf_sim), folded in grid order.
constexpr const char* kChecksumNs = "159066.725267";
constexpr const char* kHierChecksumNs = "29927.558250";
/// Every 9th cold cell feeds the layer replays (9 is coprime with the
/// generator's placement and fault periods, so the sample has both).
constexpr std::size_t kColdSampleStride = 9;
/// Warm pass: this many shuffles of the primed set.
constexpr int kWarmRounds = 100;
/// Warm job lines the parse/key/find replays see.
constexpr std::size_t kWarmReplayLines = 20000;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string fixed6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

class Gate {
 public:
  void check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
  /// The first hash seen under @p ref becomes the reference; every later
  /// one must equal it.
  void same(std::uint64_t& ref, std::uint64_t h, const std::string& what) {
    if (ref == 0) ref = h;
    check(h == ref, what);
  }
  std::vector<std::string> violations;
};

/// One public path's totals over a phase.
struct PathTotals {
  std::uint64_t jobs = 0;
  std::uint64_t failed = 0;
  std::uint64_t events = 0;
  std::uint64_t bytes = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::int64_t wall_ns = 0;
  double wall_s() const { return static_cast<double>(wall_ns) / 1e9; }
  double per_s(std::uint64_t n) const {
    return static_cast<double>(n) / wall_s();
  }
};

/// What traced serve() passes see beyond the totals.
struct ServeObs {
  std::vector<double> latency_ms;
  double retained_bytes_per_job = 0.0;
};

/// A generated job stream: distinct pre-rendered lines and the order to
/// emit them in.  Only the current line is ever materialized.
struct Stream {
  const std::vector<std::string>* lines;
  const std::vector<std::uint32_t>* order;
  std::size_t size() const { return order->size(); }
};

struct PassResult {
  svc::ServiceStats stats;
  std::uint64_t results = 0;
  std::uint64_t results_hash = 0;
  std::uint64_t summary_hash = 0;
  std::uint64_t stream_hash = 0;
  std::int64_t first_result_ns = 0;
};

/// Feed @p stream through serve() on @p service (or through run_oneshot
/// when @p service is null) into a hashing sink, as one span.
PassResult run_pass(svc::SweepService* service, int oneshot_workers,
                    const Stream& stream, Spans& spans, PathTotals& totals,
                    Gate& gate, ServeObs* obs = nullptr,
                    std::vector<std::string>* tails = nullptr) {
  const std::size_t n = stream.size();
  const std::string what = service != nullptr ? "serve" : "run_oneshot";
  std::vector<std::int64_t> in_stamps, out_stamps;
  if (obs != nullptr) {
    in_stamps.reserve(n);
    out_stamps.reserve(n);
  }
  std::size_t next = 0;
  LineSource src(
      [&](std::string& line) {
        if (next == n) return false;
        line = (*stream.lines)[(*stream.order)[next++]];
        return true;
      },
      obs != nullptr ? &in_stamps : nullptr);
  HashSink sink({obs != nullptr ? &out_stamps : nullptr, tails,
                 obs != nullptr ? 1024u : 0u});
  std::istream in(&src);
  std::ostream out(&sink);
  const std::uint64_t heap0 = obs != nullptr ? heap_in_use() : 0;

  PassResult r;
  const std::int64_t dur =
      spans.time(service != nullptr ? "path.serve" : "path.oneshot", n, [&] {
        r.stats = service != nullptr
                      ? service->serve(in, out)
                      : svc::SweepService::run_oneshot(in, out,
                                                       oneshot_workers);
      });
  r.results = sink.results();
  r.results_hash = sink.results_hash();
  r.summary_hash = sink.summary_hash();
  r.stream_hash = sink.stream_hash();
  r.first_result_ns = sink.first_result_ns();

  const svc::ServiceStats& s = r.stats;
  totals.jobs += s.jobs;
  totals.failed += s.failed;
  totals.events += sink.events();
  totals.bytes += sink.bytes();
  totals.hits += s.cache_hits;
  totals.misses += s.cache_misses;
  totals.wall_ns += dur;
  std::fprintf(stderr, "perfbench: %s %zu jobs in %.3f s\n", what.c_str(),
               n, static_cast<double>(dur) / 1e9);

  gate.check(s.jobs == n && r.results == n,
             what + ": " + std::to_string(r.results) + " result lines for " +
                 std::to_string(n) + " jobs");
  gate.check(s.failed == 0, what + ": " + std::to_string(s.failed) +
                                " jobs failed");
  gate.check(s.shed == 0 && s.retries == 0 && s.deadline_errors == 0 &&
                 s.respawns == 0 && s.requeued == 0 && s.worker_lost == 0,
             what + ": a robustness counter is nonzero");

  if (obs != nullptr) {
    const std::size_t m = std::min(in_stamps.size(), out_stamps.size());
    for (std::size_t i = 0; i < m; ++i)
      obs->latency_ms.push_back(
          static_cast<double>(out_stamps[i] - in_stamps[i]) / 1e6);
    const std::uint64_t peak = std::max(sink.heap_peak(), heap0);
    obs->retained_bytes_per_job =
        std::max(obs->retained_bytes_per_job,
                 static_cast<double>(peak - heap0) / static_cast<double>(n));
  }
  return r;
}

svc::ServiceOptions service_options() {
  svc::ServiceOptions o;
  o.workers = kServeWorkers;
  return o;
}

std::vector<std::string> render(const std::vector<svc::JobSpec>& specs) {
  std::vector<std::string> lines;
  lines.reserve(specs.size());
  for (const svc::JobSpec& s : specs) lines.push_back(job_line(s));
  return lines;
}

/// One phase's totals.
struct Phase {
  PathTotals main;     ///< the workload's own path
  PathTotals oneshot;  ///< run_oneshot
  PathTotals serve;    ///< sim_sweep's traced serve() probe
  ServeObs obs;
};

class Workload {
 public:
  explicit Workload(Spans& spans) : spans_(spans) {}
  virtual ~Workload() = default;

  /// Share of the timed seconds spent on the main path; the rest goes to
  /// run_oneshot.
  virtual double main_share() const = 0;
  /// Set-ups per run; setup_s is their median.
  virtual int setup_reps() const = 0;
  /// Set up once, as a user pays it.  Returns seconds.
  virtual double setup() = 0;
  virtual void main_pass(Phase& p, bool traced) = 0;
  virtual void oneshot_pass(Phase& p) = 0;
  /// Traced run only: serve() passes for the svc.serve.* layers, where
  /// the main path is not serve() itself.
  virtual void serve_probe(Phase&) {}
  virtual LayerInputs layer_inputs() const = 0;

  /// Main and one-shot passes, interleaved so both sample the whole run,
  /// until the main path has had main_share() x @p seconds and run_oneshot
  /// the rest.
  Phase timed(double seconds, bool traced) {
    Phase p;
    const double main_s = main_share() * seconds;
    const double oneshot_s = seconds - main_s;
    while (p.main.wall_s() < main_s || p.oneshot.wall_s() < oneshot_s) {
      const std::int64_t before = p.main.wall_ns + p.oneshot.wall_ns;
      if (p.main.wall_s() / main_s <= p.oneshot.wall_s() / oneshot_s)
        main_pass(p, traced);
      else
        oneshot_pass(p);
      measured(p.main.wall_ns + p.oneshot.wall_ns - before);
    }
    attempted += p.main.jobs + p.oneshot.jobs;
    failed += p.main.failed + p.oneshot.failed;
    return p;
  }

  /// Account @p ns of measured time and keep the host reference abreast.
  void measured(std::int64_t ns) {
    measured_ns_ += ns;
    host.keep_up(measured_ns_);
  }

  Gate gate;
  HostSpeed host;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 protected:
  Spans& spans_;

 private:
  std::int64_t measured_ns_ = 0;
};

// -- sim_sweep ---------------------------------------------------------------

class SimSweep final : public Workload {
 public:
  SimSweep(std::uint64_t seed, Spans& spans)
      : Workload(spans), grid_(sweep_grid()),
        order_(permutation(grid_.size(), seed)) {
    for (const GridCell& c : grid_) specs_.push_back(to_spec(c));
    lines_ = render(specs_);
  }

  double main_share() const override { return 0.75; }
  int setup_reps() const override { return 7; }

  double setup() override {
    const std::int64_t t0 = now_ns();
    machines_.clear();
    for (const GridCell& c : grid_)
      if (machines_.find(c.machine) == machines_.end())
        machines_.emplace(c.machine, armbar::topo::machine_by_name(c.machine));
    jobs_.clear();
    for (const std::uint32_t i : order_) {
      const GridCell& c = grid_[i];
      simbar::SimRunConfig cfg;
      cfg.threads = c.threads;
      cfg.iterations = c.iterations;
      cfg.warmup = c.warmup;
      jobs_.push_back(
          {&machines_.at(c.machine), simbar::sim_factory(c.algo, {}), cfg});
    }
    const std::vector<simbar::SimResult> warm = driver_.run(jobs_);
    const std::int64_t t1 = now_ns();
    check_grid(warm);
    attempted += jobs_.size();
    return static_cast<double>(t1 - t0) / 1e9;
  }

  void main_pass(Phase& p, bool) override {
    std::vector<simbar::SimResult> results;
    const std::int64_t dur = spans_.time(
        "path.sweep", jobs_.size(), [&] { results = driver_.run(jobs_); });
    p.main.wall_ns += dur;
    std::fprintf(stderr, "perfbench: SweepDriver::run %zu jobs in %.3f s\n",
                 jobs_.size(), static_cast<double>(dur) / 1e9);
    p.main.jobs += results.size();
    p.main.events += check_grid(results);
  }

  void oneshot_pass(Phase& p) override {
    const PassResult r =
        run_pass(nullptr, 1, {&lines_, &order_}, spans_, p.oneshot, gate);
    gate.same(oneshot_hash_, r.stream_hash,
              "sim_sweep: run_oneshot output differs between passes");
  }

  void serve_probe(Phase& p) override {
    svc::SweepService service(service_options());
    const PassResult r = run_pass(&service, 0, {&lines_, &order_}, spans_,
                                  p.serve, gate, &p.obs);
    attempted += r.stats.jobs;
    failed += r.stats.failed;
    gate.check(r.stats.cache_hits == 0, "sim_sweep: distinct grid cells hit");
    gate.same(oneshot_hash_, r.stream_hash,
              "sim_sweep: serve output differs from run_oneshot output");
  }

  LayerInputs layer_inputs() const override {
    LayerInputs in;
    in.cells = specs_;
    for (const std::uint32_t i : order_) in.stream.push_back(lines_[i]);
    in.machines = {"phytium2000+", "thunderx2", "kunpeng920", "hier1024"};
    in.serve_workers = kServeWorkers;
    in.oneshot_workers = 1;
    return in;
  }

 private:
  /// Gate one sweep's results (in job order) against the golden
  /// checksums, folded in grid order.  Returns the sweep's events.
  std::uint64_t check_grid(const std::vector<simbar::SimResult>& results) {
    std::vector<double> by_grid(grid_.size(), 0.0);
    std::uint64_t events = 0;
    for (std::size_t k = 0; k < results.size(); ++k) {
      by_grid[order_[k]] = results[k].mean_overhead_ns;
      events += results[k].events_processed;
    }
    double sum = 0.0, hier_sum = 0.0;
    for (std::size_t i = 0; i < grid_.size(); ++i)
      (grid_[i].hier ? hier_sum : sum) += by_grid[i];
    gate.check(results.size() == grid_.size() && fixed6(sum) == kChecksumNs,
               "sim_sweep: checksum_ns " + fixed6(sum) + " != " + kChecksumNs);
    gate.check(fixed6(hier_sum) == kHierChecksumNs,
               "sim_sweep: hier_checksum_ns " + fixed6(hier_sum) +
                   " != " + kHierChecksumNs);
    return events;
  }

  std::vector<GridCell> grid_;
  std::vector<std::uint32_t> order_;
  std::vector<svc::JobSpec> specs_;
  std::vector<std::string> lines_;
  std::map<std::string, armbar::topo::Machine> machines_;
  std::vector<simbar::SweepJob> jobs_;
  const simbar::SweepDriver driver_{1};
  std::uint64_t oneshot_hash_ = 0;
};

// -- svc_cold ----------------------------------------------------------------

class SvcCold final : public Workload {
 public:
  SvcCold(std::uint64_t seed, Spans& spans)
      : Workload(spans), cells_(cold_cells()), lines_(render(cells_)),
        order_(permutation(cells_.size(), seed)) {}

  double main_share() const override { return 0.45; }
  int setup_reps() const override { return 25; }

  /// Service start to the first result line, for a fixed probe job.
  double setup() override {
    static const std::vector<std::string> probe = {
        "{\"machine\": \"kunpeng920\", \"algo\": \"opt\", \"threads\": 64}"};
    static const std::vector<std::uint32_t> one = {0};
    PathTotals scratch;
    const std::int64_t t0 = now_ns();
    svc::SweepService service(service_options());
    const PassResult r =
        run_pass(&service, 0, {&probe, &one}, spans_, scratch, gate);
    attempted += 1;
    return static_cast<double>(r.first_result_ns - t0) / 1e9;
  }

  void main_pass(Phase& p, bool traced) override {
    svc::SweepService service(service_options());
    const PassResult r = run_pass(&service, 0, {&lines_, &order_}, spans_,
                                  p.main, gate, traced ? &p.obs : nullptr);
    gate.check(r.stats.cache_hits == 0,
               "svc_cold: " + std::to_string(r.stats.cache_hits) +
                   " cache hits on distinct cells");
    gate.same(hash_, r.stream_hash, "svc_cold: serve output differs");
  }

  void oneshot_pass(Phase& p) override {
    const PassResult r = run_pass(nullptr, kServeWorkers, {&lines_, &order_},
                                  spans_, p.oneshot, gate);
    gate.same(hash_, r.stream_hash,
              "svc_cold: run_oneshot output differs from serve output");
  }

  LayerInputs layer_inputs() const override {
    LayerInputs in;
    for (std::size_t i = 0; i < cells_.size(); i += kColdSampleStride) {
      in.cells.push_back(cells_[i]);
      in.stream.push_back(lines_[i]);
    }
    in.machines = {"phytium2000+", "thunderx2", "kunpeng920", "xeongold"};
    in.serve_workers = kServeWorkers;
    in.oneshot_workers = kServeWorkers;
    return in;
  }

 private:
  std::vector<svc::JobSpec> cells_;
  std::vector<std::string> lines_;
  std::vector<std::uint32_t> order_;
  std::uint64_t hash_ = 0;
};

// -- svc_warm ----------------------------------------------------------------

class SvcWarm final : public Workload {
 public:
  SvcWarm(std::uint64_t seed, Spans& spans)
      : Workload(spans), cells_(warm_cells()), lines_(render(cells_)),
        prime_order_(permutation(cells_.size(), seed)),
        pass_(warm_pass(cells_.size(), kWarmRounds, seed)) {}

  double main_share() const override { return 0.7; }
  int setup_reps() const override { return 9; }

  /// A fresh service and its cache-priming pass.
  double setup() override {
    PathTotals scratch;
    std::vector<std::string> tails;
    const std::int64_t t0 = now_ns();
    service_ = std::make_unique<svc::SweepService>(service_options());
    const PassResult r = run_pass(service_.get(), 0, {&lines_, &prime_order_},
                                  spans_, scratch, gate, nullptr, &tails);
    const std::int64_t t1 = now_ns();
    attempted += r.stats.jobs;
    failed += r.stats.failed;
    gate.check(r.stats.cache_hits == 0, "svc_warm: priming pass hit");
    gate.same(prime_hash_, r.stream_hash, "svc_warm: priming output differs");
    if (expected_ == 0 && tails.size() == cells_.size()) {
      // The warm pass's result lines, predicted from the primed tails.
      std::vector<const std::string*> tail_of(cells_.size());
      for (std::size_t k = 0; k < tails.size(); ++k)
        tail_of[prime_order_[k]] = &tails[k];
      expected_ = kHashSeed;
      for (std::size_t j = 0; j < pass_.size(); ++j)
        expected_ = fold(expected_,
                         line_hash(result_prefix(j) + *tail_of[pass_[j]]));
    }
    return static_cast<double>(t1 - t0) / 1e9;
  }

  void main_pass(Phase& p, bool traced) override {
    const PassResult r = run_pass(service_.get(), 0, {&lines_, &pass_},
                                  spans_, p.main, gate,
                                  traced ? &p.obs : nullptr);
    gate.check(r.stats.cache_hits == pass_.size() &&
                   r.stats.cache_misses == 0,
               "svc_warm: " + std::to_string(r.stats.cache_hits) + " hits for " +
                   std::to_string(pass_.size()) + " jobs");
    gate.check(r.results_hash == expected_,
               "svc_warm: result lines differ from the primed results");
    gate.same(summary_hash_, r.summary_hash, "svc_warm: summary differs");
  }

  void oneshot_pass(Phase& p) override {
    const PassResult r = run_pass(nullptr, kServeWorkers,
                                  {&lines_, &prime_order_}, spans_, p.oneshot,
                                  gate);
    gate.same(prime_hash_, r.stream_hash,
              "svc_warm: run_oneshot output differs from the priming output");
  }

  LayerInputs layer_inputs() const override {
    LayerInputs in;
    in.cells = cells_;
    for (std::size_t j = 0; j < std::min(pass_.size(), kWarmReplayLines); ++j)
      in.stream.push_back(lines_[pass_[j]]);
    in.warm = true;
    in.machines = {"phytium2000+", "thunderx2", "kunpeng920", "xeongold"};
    in.serve_workers = kServeWorkers;
    in.oneshot_workers = kServeWorkers;
    return in;
  }

 private:
  std::vector<svc::JobSpec> cells_;
  std::vector<std::string> lines_;
  std::vector<std::uint32_t> prime_order_;
  std::vector<std::uint32_t> pass_;
  std::unique_ptr<svc::SweepService> service_;
  std::uint64_t prime_hash_ = 0;
  std::uint64_t summary_hash_ = 0;
  std::uint64_t expected_ = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Spans& spans) {
  if (name == "sim_sweep") return std::make_unique<SimSweep>(seed, spans);
  if (name == "svc_cold") return std::make_unique<SvcCold>(seed, spans);
  if (name == "svc_warm") return std::make_unique<SvcWarm>(seed, spans);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"sim_sweep", "svc_cold",
                                                 "svc_warm"};
  return names;
}

Outcome run_workload(const Options& opts) {
  Spans spans(opts.trace);
  const std::unique_ptr<Workload> w =
      make_workload(opts.workload, opts.seed, spans);

  std::vector<double> setups;
  for (int i = 0; i < w->setup_reps(); ++i) {
    setups.push_back(w->setup());
    w->measured(static_cast<std::int64_t>(setups.back() * 1e9));
  }
  const Phase ref = w->timed(opts.trace ? opts.seconds / 2 : opts.seconds,
                             /*traced=*/false);
  // Figures at the nominal host speed (reference.hpp).
  const double scale = w->host.scale();
  const std::vector<Metric> end_to_end = {
      {"events_per_s", ref.main.per_s(ref.main.events) * scale, "1/s"},
      {"jobs_per_s", ref.main.per_s(ref.main.jobs) * scale, "1/s"},
      {"oneshot_jobs_per_s", ref.oneshot.per_s(ref.oneshot.jobs) * scale,
       "1/s"},
      {"setup_s", median(setups) / scale, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  std::fprintf(stderr,
               "perfbench: host reference %.4g events/s, figures scaled by "
               "%.4f\n",
               w->host.rate(), scale);
  for (const Metric& m : end_to_end)
    std::fprintf(stderr, "perfbench: %s %.6g %s (at nominal speed)\n",
                 m.name.c_str(), m.value, m.unit.c_str());

  Outcome out;
  if (!opts.trace) {
    out.metrics = end_to_end;
  } else {
    Phase traced = w->timed(opts.seconds / 2, /*traced=*/true);
    w->serve_probe(traced);
    // On the service workloads the main path is serve() itself.
    const PathTotals& serve = traced.serve.jobs > 0 ? traced.serve : traced.main;
    const LayerInputs in = w->layer_inputs();
    replay_layers(in, spans, w->gate.violations);

    TracedTotals t;
    t.main_jobs = traced.main.jobs;
    t.main_events = traced.main.events;
    t.serve_jobs = serve.jobs;
    t.serve_hits = serve.hits;
    t.serve_misses = serve.misses;
    t.serve_bytes = serve.bytes;
    t.serve_wall_s = serve.wall_s();
    t.oneshot_jobs = traced.oneshot.jobs;
    t.oneshot_wall_s = traced.oneshot.wall_s();
    t.latency_ms = std::move(traced.obs.latency_ms);
    t.retained_bytes_per_job = traced.obs.retained_bytes_per_job;
    t.reference_rate = w->host.rate();
    t.trace_overhead = (traced.main.wall_s() / static_cast<double>(t.main_jobs)) /
                       (ref.main.wall_s() / static_cast<double>(ref.main.jobs));
    out.metrics = layer_metrics(in, spans, t);
    out.table = layer_table(opts.workload, out.metrics, end_to_end);
    if (!opts.trace_out.empty() && !spans.write_chrome_json(opts.trace_out))
      w->gate.check(false, "cannot write " + opts.trace_out);
  }

  out.attempted = w->attempted;
  out.violations = w->gate.violations;
  out.failed = out.correct() ? w->failed : w->attempted;
  return out;
}

}  // namespace perfbench
