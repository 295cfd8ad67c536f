#pragma once
// The three workloads and the loop that times them.
//
//   sim_sweep  figure regeneration: the Fig. 7 + hier1024 grid through
//              simbar::SweepDriver(1) on the plain path, serially.
//   svc_cold   all-distinct cells through svc::SweepService::serve (fresh
//              service per pass, 2 workers) and run_oneshot (2 workers).
//   svc_warm   a primed set of a few hundred cells re-served as a long
//              stream of cache hits.
//
// Every timed interval is one call into a public armbar function.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Traced run: where to write the span file ("" = nowhere).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness-gate violations; any one fails the whole run.
  std::vector<std::string> violations;
  std::vector<Metric> metrics;
  /// Traced run: the per-layer table (per-layer metric beside the
  /// end-to-end metric it moves).
  std::string table;
  bool correct() const noexcept { return violations.empty(); }
};

/// Names accepted by run_workload.
const std::vector<std::string>& workload_names();

/// Run one workload.  Untraced: the end-to-end metrics.  Traced: an
/// untraced reference run and a traced run of half the time each, then
/// the layer replays; the per-layer metrics.
Outcome run_workload(const Options& opts);

}  // namespace perfbench
