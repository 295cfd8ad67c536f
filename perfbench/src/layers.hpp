#pragma once
// Outside-in per-layer tracing.  The service's layers run inside serve()
// and run_oneshot, where a benchmark cannot reach without changing the
// program, so the traced run replays each public layer function on the
// workload's own inputs, one span per call or per batch of calls, and
// attributes the rest of a path's wall time to the path itself (its
// "self" time).

#include <cstdint>
#include <string>
#include <vector>

#include "armbar/svc/job.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

/// What a workload feeds the layer replays.
struct LayerInputs {
  /// Distinct cells the workload's serve() passes simulate.
  std::vector<armbar::svc::JobSpec> cells;
  /// Job lines in stream order (parse, cache key, cache find).
  std::vector<std::string> stream;
  /// Every stream key is already cached (the warm path).
  bool warm = false;
  /// Machines the workload resolves.
  std::vector<std::string> machines;
  int serve_workers = 2;
  int oneshot_workers = 2;
};

/// What the traced run observed on the public paths.
struct TracedTotals {
  std::uint64_t main_jobs = 0;
  std::uint64_t main_events = 0;
  std::uint64_t serve_jobs = 0;
  std::uint64_t serve_hits = 0;
  std::uint64_t serve_misses = 0;
  std::uint64_t serve_bytes = 0;
  double serve_wall_s = 0.0;
  std::uint64_t oneshot_jobs = 0;
  double oneshot_wall_s = 0.0;
  /// Result-line latency of every traced serve() job.
  std::vector<double> latency_ms;
  double retained_bytes_per_job = 0.0;
  /// Traced main-path wall per job over the untraced one.
  double trace_overhead = 0.0;
  /// Host reference loop rate over the run (reference.hpp).
  double reference_rate = 0.0;
};

/// Replay every layer function on @p in, recording spans.  A replay
/// whose result is wrong appends to @p violations.
void replay_layers(const LayerInputs& in, Spans& spans,
                   std::vector<std::string>& violations);

/// The per-layer metrics, in BENCHMARK.json order.
std::vector<Metric> layer_metrics(const LayerInputs& in, const Spans& spans,
                                  const TracedTotals& t);

/// The traced-mode table: each per-layer metric beside the end-to-end
/// metric(s) it should move, with this workload's untraced value.
std::string layer_table(const std::string& workload,
                        const std::vector<Metric>& layers,
                        const std::vector<Metric>& end_to_end);

}  // namespace perfbench
