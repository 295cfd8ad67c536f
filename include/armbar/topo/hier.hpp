#pragma once
// Synthetic hierarchical machine generation: cluster-of-clusters
// geometries far beyond the paper's 64-core platforms, with latency
// tables EXTRAPOLATED from the measured anchors of Tables I-III.
//
// The paper validates its fan-in model up to 64 cores; the 1024-core
// RISC-V cluster line of work (PAPERS.md, arXiv 2307.10248) is the regime
// these machines model: many small clusters with cheap local amo-add
// traffic and increasingly expensive die-to-die hops.  The extrapolation
// assumptions (what is anchored to a measurement, what is a ratio, what
// is linear in distance) are documented in docs/MODEL.md §"Latency-table
// extrapolation".

#include <string>
#include <vector>

#include "armbar/topo/machine.hpp"

namespace armbar::topo {

/// Geometry + latency-extrapolation parameters of a synthetic
/// hierarchical machine.  Cores are numbered depth-first: core id =
/// (die * clusters_per_die + cluster) * cores_per_cluster + lane.
///
/// Latency layers derived from the spec:
///   L0       = cluster_ns                      (within a cluster)
///   L1       = cluster_ns * cluster_ratio      (cross-cluster, same die)
///   L(1+d)   = L1 * die_ratio + (d-1) * die_step_ns   (die distance d)
///
/// so a machine with D dies has D+1 latency layers.
struct HierSpec {
  int cores_per_cluster = 8;
  int clusters_per_die = 8;
  int dies = 4;

  /// Intra-cluster latency anchor, ns (Kunpeng 920 CCL scale).
  double cluster_ns = 14.0;
  /// Inter/intra-cluster latency ratio within one die (KP920's
  /// SCCL/CCL ratio 44.2/14.2 ~ 3.1).
  double cluster_ratio = 3.1;
  /// First-die-hop over cross-cluster ratio (KP920's cross-SCCL/SCCL
  /// ratio 75/44.2 ~ 1.7).
  double die_ratio = 1.7;
  /// Extra latency per additional die hop, ns (Phytium 2000+'s
  /// panel-distance slope, Table I: ~7 ns per hop).
  double die_step_ns = 7.0;

  double epsilon_ns = 1.2;
  int cacheline_bytes = 64;
  double alpha = 0.03;
  double contention_ns = 1.0;
  double mlp_delay_ns = 6.0;
  double net_contention_ns = 1.5;

  /// Machine name; empty = "hier<num_cores>".
  std::string name;

  int num_cores() const noexcept {
    return cores_per_cluster * clusters_per_die * dies;
  }
};

/// Build the machine described by @p spec (its core x core pair table
/// and per-layer latencies).  N_c is the cluster size (the natural grain
/// for cluster-local amo-add arrival and the NUMA-aware wake-up tree).
/// Throws std::invalid_argument for non-physical specs (fields out of
/// range, or more than kMaxHierCores cores — the pair table grows as the
/// square of the core count, so larger counts are an allocation bomb, not
/// a bigger model).
Machine make_hier_machine(const HierSpec& spec = {});

/// Core-count cap of make_hier_machine (matches the machine-file loader).
inline constexpr int kMaxHierCores = 4096;

/// Die-count cap of make_hier_machine: die distance d is layer 1 + d,
/// and layer indices are stored in a signed byte.
inline constexpr int kMaxHierDies = 127;

/// The three stock synthetic machines wired through machine_by_name, the
/// sweep service's machine registry, and bench/fig_hier:
///   hier256  =  8 cores/cluster x  8 clusters/die x  4 dies
///   hier1024 =  8 cores/cluster x 16 clusters/die x  8 dies
///   hier4096 = 16 cores/cluster x 16 clusters/die x 16 dies
Machine hier256();
Machine hier1024();
Machine hier4096();

/// All three stock hierarchical machines, smallest first.
std::vector<Machine> hier_machines();

}  // namespace armbar::topo
