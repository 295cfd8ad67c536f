// perfbench: one run of one workload, printed as one JSON line.
//
//   perfbench --workload sim_sweep|svc_cold|svc_warm --seed N --seconds S
//             --trace 0|1 [--trace-out PATH]
//
// The last line of standard output is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1, preceded by the per-layer table).  Gate violations go to
// standard error.  Exit code 0 unless the run could not be made.

#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "armbar/util/args.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  try {
    const armbar::util::Args args(argc, argv);
    opts.workload = args.get_or("workload", "");
    opts.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
    opts.seconds = args.get_double_or("seconds", 10.0);
    opts.trace = args.get_int_or("trace", 0) != 0;
    opts.trace_out = args.get_or("trace-out", "");
    bool known = false;
    for (const std::string& w : workload_names()) known |= w == opts.workload;
    if (!known || !(opts.seconds > 0.0))
      throw std::invalid_argument("need --workload sim_sweep|svc_cold|"
                                  "svc_warm and --seconds > 0");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  Outcome out;
  try {
    out = run_workload(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const Metric& m : out.metrics)
    if (!std::isfinite(m.value))
      out.violations.push_back(m.name + " is not a finite number");
  for (const std::string& v : out.violations)
    std::fprintf(stderr, "perfbench: GATE: %s\n", v.c_str());
  if (!out.correct()) out.failed = out.attempted;

  std::fputs(out.table.c_str(), stdout);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
