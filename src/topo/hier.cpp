#include "armbar/topo/hier.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>

namespace armbar::topo {

namespace {

void require(bool ok, const std::string& what) {
  if (!ok) throw std::invalid_argument("make_hier_machine: " + what);
}

}  // namespace

Machine make_hier_machine(const HierSpec& spec) {
  require(spec.cores_per_cluster >= 2,
          "cores_per_cluster must be >= 2, got " +
              std::to_string(spec.cores_per_cluster));
  require(spec.clusters_per_die >= 2,
          "clusters_per_die must be >= 2, got " +
              std::to_string(spec.clusters_per_die));
  require(spec.dies >= 1, "dies must be >= 1, got " +
                              std::to_string(spec.dies));
  // Check as we multiply: the core x core pair table scales as the square
  // of this product, so an absurd geometry is an allocation bomb.
  const long long cores = static_cast<long long>(spec.cores_per_cluster) *
                          spec.clusters_per_die * spec.dies;
  require(cores <= kMaxHierCores,
          "geometry describes " + std::to_string(cores) +
              " cores, above the cap of " + std::to_string(kMaxHierCores) +
              " (dense core x core latency tables)");
  // One layer per die distance (layers 1..dies), and a layer index must
  // fit the signed byte of Machine's layer matrix.
  require(spec.dies <= kMaxHierDies,
          "dies must be <= " + std::to_string(kMaxHierDies) + ", got " +
              std::to_string(spec.dies));
  require(spec.cluster_ns > 0.0, "cluster_ns must be > 0");
  require(spec.cluster_ratio >= 1.0,
          "cluster_ratio must be >= 1 (crossing a cluster boundary cannot "
          "be cheaper than staying inside)");
  require(spec.die_ratio >= 1.0,
          "die_ratio must be >= 1 (crossing a die boundary cannot be "
          "cheaper than staying inside)");
  require(spec.die_step_ns >= 0.0, "die_step_ns must be >= 0");

  // Extrapolated layer table: anchored intra-cluster latency, ratio-scaled
  // cross-cluster and first-die-hop latencies, then linear growth in die
  // distance (docs/MODEL.md §"Latency-table extrapolation").
  const double l1_ns = spec.cluster_ns * spec.cluster_ratio;
  std::vector<Layer> layers;
  layers.reserve(static_cast<std::size_t>(spec.dies) + 1);
  layers.push_back({"within a cluster", spec.cluster_ns});
  layers.push_back({"cross-cluster, same die", l1_ns});
  for (int d = 1; d < spec.dies; ++d)
    layers.push_back({"die distance " + std::to_string(d),
                      l1_ns * spec.die_ratio + (d - 1) * spec.die_step_ns});

  // Row by row, in runs: a core on a die `hops` dies away is layer
  // 1 + hops (so the own die is layer 1), except the own cluster, which is
  // layer 0 (Machine ignores the diagonal entry).
  const int num_cores = static_cast<int>(cores);
  const auto n = static_cast<std::size_t>(num_cores);
  const auto per_die = static_cast<std::size_t>(spec.cores_per_cluster) *
                       static_cast<std::size_t>(spec.clusters_per_die);
  const auto per_cluster = static_cast<std::size_t>(spec.cores_per_cluster);
  std::vector<std::int8_t> matrix(n * n);
  for (std::size_t a = 0; a < n; ++a) {
    std::int8_t* const row = matrix.data() + a * n;
    const std::size_t da = a / per_die;
    for (std::size_t d = 0; d < n / per_die; ++d) {
      const std::size_t hops = d > da ? d - da : da - d;
      std::fill_n(row + d * per_die, per_die,
                  static_cast<std::int8_t>(1 + hops));
    }
    std::fill_n(row + a / per_cluster * per_cluster, per_cluster,
                std::int8_t{0});
  }

  std::string name = spec.name.empty()
                         ? "hier" + std::to_string(num_cores)
                         : spec.name;
  return Machine(std::move(name), num_cores, spec.epsilon_ns,
                 /*cluster_size=*/spec.cores_per_cluster,
                 spec.cacheline_bytes, spec.alpha, spec.contention_ns,
                 std::move(layers), std::move(matrix), spec.mlp_delay_ns,
                 spec.net_contention_ns);
}

Machine hier256() {
  HierSpec spec;  // 8 x 8 x 4 = 256 cores, defaults
  return make_hier_machine(spec);
}

Machine hier1024() {
  HierSpec spec;
  spec.cores_per_cluster = 8;
  spec.clusters_per_die = 16;
  spec.dies = 8;
  return make_hier_machine(spec);
}

Machine hier4096() {
  HierSpec spec;
  spec.cores_per_cluster = 16;
  spec.clusters_per_die = 16;
  spec.dies = 16;
  return make_hier_machine(spec);
}

std::vector<Machine> hier_machines() {
  return {hier256(), hier1024(), hier4096()};
}

}  // namespace armbar::topo
