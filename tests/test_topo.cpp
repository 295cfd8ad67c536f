// Unit tests for the topology substrate: the machine models must carry the
// paper's Tables I-III exactly and expose consistent layer lookups.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "armbar/topo/hier.hpp"
#include "armbar/topo/machine.hpp"
#include "armbar/topo/machine_file.hpp"
#include "armbar/topo/platforms.hpp"

namespace armbar::topo {
namespace {

// --- Phytium 2000+ (Table I) -----------------------------------------------

TEST(Phytium, TableIValues) {
  const Machine m = phytium2000();
  EXPECT_EQ(m.num_cores(), 64);
  EXPECT_EQ(m.cluster_size(), 4);  // N_c
  EXPECT_DOUBLE_EQ(m.epsilon_ns(), 1.8);
  ASSERT_EQ(m.num_layers(), 9);
  EXPECT_DOUBLE_EQ(m.layer_info(0).ns, 9.1);   // within a core group
  EXPECT_DOUBLE_EQ(m.layer_info(1).ns, 42.3);  // within a panel
  EXPECT_DOUBLE_EQ(m.layer_info(2).ns, 54.1);  // panel 0-1
  EXPECT_DOUBLE_EQ(m.layer_info(3).ns, 76.3);  // panel 0-2
  EXPECT_DOUBLE_EQ(m.layer_info(4).ns, 65.6);  // panel 0-3
  EXPECT_DOUBLE_EQ(m.layer_info(5).ns, 61.4);  // panel 0-4
  EXPECT_DOUBLE_EQ(m.layer_info(6).ns, 72.7);  // panel 0-5
  EXPECT_DOUBLE_EQ(m.layer_info(7).ns, 95.5);  // panel 0-6
  EXPECT_DOUBLE_EQ(m.layer_info(8).ns, 84.5);  // panel 0-7
}

TEST(Phytium, LayerGeometry) {
  const Machine m = phytium2000();
  EXPECT_EQ(m.layer(0, 0), -1);            // local
  EXPECT_EQ(m.layer(0, 1), 0);             // same core group of 4
  EXPECT_EQ(m.layer(0, 3), 0);
  EXPECT_EQ(m.layer(0, 4), 1);             // same panel, different group
  EXPECT_EQ(m.layer(0, 7), 1);
  EXPECT_EQ(m.layer(0, 8), 2);             // panel 0 -> 1
  EXPECT_EQ(m.layer(0, 63), 8);            // panel 0 -> 7
  EXPECT_EQ(m.layer(8, 16), 2);            // panel 1 -> 2, distance 1
  EXPECT_DOUBLE_EQ(m.comm_ns(0, 0), 1.8);
  EXPECT_DOUBLE_EQ(m.comm_ns(0, 1), 9.1);
  EXPECT_DOUBLE_EQ(m.comm_ns(0, 63), 84.5);
}

// --- ThunderX2 (Table II) -----------------------------------------------------

TEST(ThunderX2, TableIIValues) {
  const Machine m = thunderx2();
  EXPECT_EQ(m.num_cores(), 64);
  EXPECT_EQ(m.cluster_size(), 32);  // N_c: uniform within a socket
  EXPECT_DOUBLE_EQ(m.epsilon_ns(), 1.2);
  ASSERT_EQ(m.num_layers(), 2);
  EXPECT_DOUBLE_EQ(m.layer_info(0).ns, 24.0);
  EXPECT_DOUBLE_EQ(m.layer_info(1).ns, 140.7);
}

TEST(ThunderX2, SocketGeometry) {
  const Machine m = thunderx2();
  EXPECT_EQ(m.layer(0, 31), 0);
  EXPECT_EQ(m.layer(0, 32), 1);
  EXPECT_EQ(m.layer(31, 32), 1);
  EXPECT_EQ(m.layer(33, 63), 0);
  EXPECT_EQ(m.num_clusters(), 2);
}

// --- Kunpeng 920 (Table III) ---------------------------------------------------

TEST(Kunpeng, TableIIIValues) {
  const Machine m = kunpeng920();
  EXPECT_EQ(m.num_cores(), 64);
  EXPECT_EQ(m.cluster_size(), 4);  // N_c = CCL size
  EXPECT_DOUBLE_EQ(m.epsilon_ns(), 1.15);
  ASSERT_EQ(m.num_layers(), 3);
  EXPECT_DOUBLE_EQ(m.layer_info(0).ns, 14.2);
  EXPECT_DOUBLE_EQ(m.layer_info(1).ns, 44.2);
  EXPECT_DOUBLE_EQ(m.layer_info(2).ns, 75.0);
  // Section V-B1: a Kunpeng cacheline holds 32 four-byte flags.
  EXPECT_EQ(m.cacheline_bytes() / 4, 32);
}

TEST(Kunpeng, CclScclGeometry) {
  const Machine m = kunpeng920();
  EXPECT_EQ(m.layer(0, 3), 0);   // same CCL
  EXPECT_EQ(m.layer(0, 4), 1);   // same SCCL, different CCL
  EXPECT_EQ(m.layer(0, 31), 1);
  EXPECT_EQ(m.layer(0, 32), 2);  // across SCCLs
  EXPECT_EQ(m.layer(31, 32), 2);
}

// --- Xeon reference -------------------------------------------------------------

TEST(Xeon, Uniform32Cores) {
  const Machine m = xeon_gold();
  EXPECT_EQ(m.num_cores(), 32);
  EXPECT_EQ(m.num_layers(), 1);
  for (int b = 1; b < m.num_cores(); ++b) EXPECT_EQ(m.layer(0, b), 0);
}

// --- generic invariants -----------------------------------------------------------

class AllMachines : public ::testing::TestWithParam<int> {};

TEST_P(AllMachines, LayerMatrixSymmetricAndInRange) {
  const Machine m = all_machines()[static_cast<std::size_t>(GetParam())];
  for (int a = 0; a < m.num_cores(); ++a) {
    EXPECT_EQ(m.layer(a, a), -1);
    for (int b = 0; b < m.num_cores(); ++b) {
      if (a == b) continue;
      const int l = m.layer(a, b);
      ASSERT_GE(l, 0);
      ASSERT_LT(l, m.num_layers());
      EXPECT_EQ(l, m.layer(b, a));
      EXPECT_GT(m.comm_ns(a, b), m.epsilon_ns());
    }
  }
}

TEST_P(AllMachines, IntraClusterIsCheapestLayer) {
  const Machine m = all_machines()[static_cast<std::size_t>(GetParam())];
  for (int a = 0; a < m.num_cores(); ++a) {
    for (int b = 0; b < m.num_cores(); ++b) {
      if (a == b) continue;
      if (m.cluster_of(a) == m.cluster_of(b)) EXPECT_EQ(m.layer(a, b), 0);
    }
  }
}

TEST_P(AllMachines, PicosecondConversionExact) {
  const Machine m = all_machines()[static_cast<std::size_t>(GetParam())];
  EXPECT_EQ(m.epsilon_ps(), util::ns_to_ps(m.epsilon_ns()));
  for (int i = 0; i < m.num_layers(); ++i)
    EXPECT_EQ(m.layer_ps(i), util::ns_to_ps(m.layer_info(i).ns));
}

TEST_P(AllMachines, AlphaAndContentionWithinPaperBounds) {
  const Machine m = all_machines()[static_cast<std::size_t>(GetParam())];
  EXPECT_GE(m.alpha(), 0.0);
  EXPECT_LE(m.alpha(), 1.0);  // Section III-B: 0 <= alpha <= 1
  EXPECT_GE(m.contention_ns(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Machines, AllMachines, ::testing::Range(0, 4));

// --- lookup and custom builder ------------------------------------------------------

TEST(Lookup, ByNameVariants) {
  EXPECT_EQ(machine_by_name("Phytium2000+").name(), "Phytium2000+");
  EXPECT_EQ(machine_by_name("phytium-2000").name(), "Phytium2000+");
  EXPECT_EQ(machine_by_name("TX2").name(), "ThunderX2");
  EXPECT_EQ(machine_by_name("kunpeng920").name(), "Kunpeng920");
  EXPECT_EQ(machine_by_name("KP920").name(), "Kunpeng920");
  EXPECT_EQ(machine_by_name("xeon").name(), "XeonGold");
  EXPECT_THROW(machine_by_name("rocket"), std::invalid_argument);
}

TEST(Hierarchical, BuildsExpectedLayers) {
  const Machine m = make_hierarchical("toy", {2, 4}, {5.0, 50.0}, 1.0, 2, 64,
                                      0.2, 1.0);
  EXPECT_EQ(m.num_cores(), 8);
  EXPECT_EQ(m.layer(0, 1), 0);  // same innermost pair
  EXPECT_EQ(m.layer(0, 2), 1);  // across pairs
  EXPECT_EQ(m.layer(0, 7), 1);
  EXPECT_DOUBLE_EQ(m.comm_ns(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.comm_ns(0, 2), 50.0);
}

TEST(Hierarchical, RejectsBadShapes) {
  EXPECT_THROW(make_hierarchical("x", {2}, {1.0, 2.0}, 1.0, 2, 64, 0.1, 0.0),
               std::invalid_argument);
  EXPECT_THROW(make_hierarchical("x", {1, 2}, {1.0, 2.0}, 1.0, 2, 64, 0.1, 0.0),
               std::invalid_argument);
  EXPECT_THROW(make_hierarchical("x", {}, {}, 1.0, 2, 64, 0.1, 0.0),
               std::invalid_argument);
}

TEST(MachineValidation, RejectsBadParameters) {
  std::vector<Layer> layers = {{"l0", 10.0}};
  std::vector<std::int8_t> mat(4, 0);
  EXPECT_NO_THROW(Machine("ok", 2, 1.0, 2, 64, 0.5, 1.0, layers, mat));
  EXPECT_THROW(Machine("bad", 2, 1.0, 2, 64, 1.5, 1.0, layers, mat),
               std::invalid_argument);  // alpha > 1
  EXPECT_THROW(Machine("bad", 2, -1.0, 2, 64, 0.5, 1.0, layers, mat),
               std::invalid_argument);  // epsilon <= 0
  EXPECT_THROW(Machine("bad", 2, 1.0, 3, 64, 0.5, 1.0, layers, mat),
               std::invalid_argument);  // cluster > cores
  std::vector<std::int8_t> bad_mat(4, 5);
  bad_mat[0] = bad_mat[3] = 0;
  EXPECT_THROW(Machine("bad", 2, 1.0, 2, 64, 0.5, 1.0, layers, bad_mat),
               std::invalid_argument);  // layer out of range
}

TEST(MachineValidation, RejectsAsymmetricMatrix) {
  std::vector<Layer> layers = {{"l0", 10.0}, {"l1", 20.0}};
  // 2x2 with [0][1]=0 but [1][0]=1.
  std::vector<std::int8_t> mat = {0, 0, 1, 0};
  EXPECT_THROW(Machine("bad", 2, 1.0, 2, 64, 0.5, 1.0, layers, mat),
               std::invalid_argument);
}

// --- Pair table -------------------------------------------------------------

/// Mismatches between the simulator's pair accessors and the formulas
/// they replace, for every ordered core pair: the layer from the
/// machine's geometry, the comm entry fusing ε or the layer's
/// picoseconds with layer + 1, and the RFO cost
/// static_cast<Picos>(alpha * double(ps)).
std::uint64_t pair_mismatches(const Machine& m,
                              const std::function<int(int, int)>& layer_of) {
  const util::Picos eps = util::ns_to_ps(m.epsilon_ns());
  std::vector<util::Picos> layer_ps;
  for (int l = 0; l < m.num_layers(); ++l)
    layer_ps.push_back(util::ns_to_ps(m.layer_info(l).ns));
  std::uint64_t bad = 0;
  for (int a = 0; a < m.num_cores(); ++a) {
    for (int b = 0; b < m.num_cores(); ++b) {
      const int layer = a == b ? -1 : layer_of(a, b);
      const util::Picos ps =
          layer < 0 ? eps : layer_ps[static_cast<std::size_t>(layer)];
      const std::uint64_t entry =
          ps | (static_cast<std::uint64_t>(layer + 1)
                << Machine::kCommLayerShift);
      const auto rfo =
          static_cast<util::Picos>(m.alpha() * static_cast<double>(ps));
      if (m.layer(a, b) != layer || m.layer_fast(a, b) != layer ||
          m.comm_entry_fast(a, b) != entry || m.comm_ps(a, b) != ps ||
          m.rfo_ps_fast(a, b) != rfo)
        ++bad;
    }
  }
  return bad;
}

/// Layer of a hierarchical geometry: innermost level whose group holds
/// both cores (the last level otherwise).
std::function<int(int, int)> nested_groups(std::vector<int> groups) {
  return [groups](int a, int b) {
    int span = 1;
    for (std::size_t lvl = 0; lvl < groups.size(); ++lvl) {
      span *= groups[lvl];
      if (a / span == b / span) return static_cast<int>(lvl);
    }
    return static_cast<int>(groups.size()) - 1;
  };
}

/// Layer of a hier machine: own cluster 0, own die 1, else 1 + die hops.
std::function<int(int, int)> hier_layers(int per_cluster, int per_die) {
  return [=](int a, int b) {
    const int da = a / per_die, db = b / per_die;
    if (da != db) return 1 + std::abs(da - db);
    return a / per_cluster == b / per_cluster ? 0 : 1;
  };
}

TEST(PairTable, MatchesTheLayerFormulasOnEveryPair) {
  EXPECT_EQ(pair_mismatches(phytium2000(),
                            [](int a, int b) {
                              const int pa = a / 8, pb = b / 8;
                              if (pa != pb) return 1 + std::abs(pa - pb);
                              return a / 4 == b / 4 ? 0 : 1;
                            }),
            0u);
  EXPECT_EQ(pair_mismatches(thunderx2(), nested_groups({32, 2})), 0u);
  EXPECT_EQ(pair_mismatches(kunpeng920(), nested_groups({4, 8, 2})), 0u);
  EXPECT_EQ(pair_mismatches(xeon_gold(), [](int, int) { return 0; }), 0u);
  EXPECT_EQ(pair_mismatches(machine_by_name("hier256"), hier_layers(8, 64)),
            0u);
  EXPECT_EQ(pair_mismatches(machine_by_name("hier1024"), hier_layers(8, 128)),
            0u);
  EXPECT_EQ(pair_mismatches(machine_by_name("hier4096"), hier_layers(16, 256)),
            0u);
  // A --hier-geometry machine (4 cores x 3 clusters x 5 dies, custom
  // ratios) and a machine file.
  HierSpec spec;
  spec.cores_per_cluster = 4;
  spec.clusters_per_die = 3;
  spec.dies = 5;
  spec.cluster_ratio = 2.5;
  spec.die_ratio = 1.75;
  EXPECT_EQ(pair_mismatches(make_hier_machine(spec), hier_layers(4, 12)), 0u);
  EXPECT_EQ(pair_mismatches(parse_machine("groups = 2, 3, 4\n"
                                          "layer_ns = 7.5, 31.0, 90.0\n"
                                          "alpha = 0.37\n"),
                            nested_groups({2, 3, 4})),
            0u);
}

TEST(PairTable, OneSharedBytePerCorePair) {
  const Machine m = machine_by_name("hier1024");
  const auto codes = m.pair_codes();
  EXPECT_EQ(codes.size_bytes(), std::size_t{1024} * 1024);  // 1 MB
  EXPECT_EQ(codes[0], 0);         // diagonal
  EXPECT_EQ(codes[1], 1);         // same cluster: layer 0
  EXPECT_EQ(codes[1023], 1 + 8);  // die distance 7: layer 8
  // Copies share the table instead of duplicating it, and the hot-path
  // views stay valid through copies and assignment.
  const Machine copy = m;
  EXPECT_EQ(copy.pair_codes().data(), codes.data());
  Machine other = m;
  EXPECT_EQ(other.pair_codes().data(), codes.data());
  other = kunpeng920();
  EXPECT_EQ(other.pair_codes().size(), std::size_t{64} * 64);
  EXPECT_EQ(other.comm_ps(0, 63), other.layer_ps(2));
  EXPECT_EQ(copy.comm_ps(0, 1023), copy.layer_ps(8));
}

}  // namespace
}  // namespace armbar::topo
