#pragma once
// Workload generators: which simulation cells each workload runs and in
// what order.  Every generator is a pure function of its seed, and the
// seed changes only the order, never the set of cells.

#include <cstdint>
#include <string>
#include <vector>

#include "armbar/barriers/factory.hpp"
#include "armbar/svc/job.hpp"

namespace perfbench {

/// Render @p spec as one JSONL job line; fields at their parser defaults
/// are omitted.  parse_job_line() of the result has spec's cache key.
std::string job_line(const armbar::svc::JobSpec& spec);

/// Seeded Fisher-Yates permutation of 0..n-1.
std::vector<std::uint32_t> permutation(std::size_t n, std::uint64_t seed);

// -- sim_sweep ---------------------------------------------------------------

/// One cell of the figure-regeneration grid.
struct GridCell {
  std::string machine;  ///< topo::machine_by_name name
  armbar::Algo algo;
  int threads;
  int iterations;
  int warmup;
  bool hier;  ///< part of the hier1024 grid (hier_checksum_ns)
};

/// The Fig. 7 grid (3 ARM machines x 7 algorithms x 12 thread counts,
/// 20 episodes, warmup 5) followed by the 1024-core grid (hier1024 x
/// {amo, central2, hybrid, opt} x {256, 1024} threads, 10 episodes,
/// warmup 2), in grid order: the order the golden checksums fold in.
std::vector<GridCell> sweep_grid();

/// A grid cell as a service job (the same simulation).
armbar::svc::JobSpec to_spec(const GridCell& cell);

// -- svc_cold ----------------------------------------------------------------

/// The three fault shapes cold cells carry: periodic noise, a static
/// straggler set, and machine-wide bursts.
std::vector<armbar::fault::FaultSpec> fault_variants();

/// Every cell of the cold stream in canonical order: 4 machines x 12
/// algorithms x every thread count from 2 to the machine's core count,
/// alternating compact/scatter placement, with every fourth cell carrying
/// a noise, straggler or burst fault.  Cache keys are pairwise distinct.
std::vector<armbar::svc::JobSpec> cold_cells();

// -- svc_warm ----------------------------------------------------------------

/// The distinct cells the warm stream repeats: every 7th cold cell.
std::vector<armbar::svc::JobSpec> warm_cells();

/// One warm pass as indices into warm_cells(): @p rounds independent
/// seeded shuffles of all @p cells, back to back.
std::vector<std::uint32_t> warm_pass(std::size_t cells, int rounds,
                                     std::uint64_t seed);

}  // namespace perfbench
