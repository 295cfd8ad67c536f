// Tests for the synthetic hierarchical machines (topo/hier.hpp), the
// >64-core multi-word bitmask directory path they make load-bearing, and
// the hierarchical hybrid barriers (amo / central2) that run on them.

#include <gtest/gtest.h>

#include <iomanip>
#include <stdexcept>
#include <vector>

#include "armbar/sim/engine.hpp"
#include "armbar/sim/memory.hpp"
#include "armbar/simbar/autotune.hpp"
#include "armbar/simbar/runner.hpp"
#include "armbar/simbar/sim_barriers.hpp"
#include "armbar/topo/hier.hpp"
#include "armbar/topo/platforms.hpp"

namespace armbar {
namespace {

using topo::HierSpec;
using topo::Machine;

// ---------------------------------------------------------------------------
// Geometry
// ---------------------------------------------------------------------------

TEST(HierGeometry, StockMachineShapes) {
  const Machine m256 = topo::hier256();
  EXPECT_EQ(m256.num_cores(), 256);
  EXPECT_EQ(m256.cluster_size(), 8);
  EXPECT_EQ(m256.num_layers(), 5);  // L0, L1, die distance 1..3
  EXPECT_EQ(m256.name(), "hier256");

  const Machine m1024 = topo::hier1024();
  EXPECT_EQ(m1024.num_cores(), 1024);
  EXPECT_EQ(m1024.cluster_size(), 8);
  EXPECT_EQ(m1024.num_layers(), 9);  // 8 dies -> die distance 1..7

  const Machine m4096 = topo::hier4096();
  EXPECT_EQ(m4096.num_cores(), 4096);
  EXPECT_EQ(m4096.cluster_size(), 16);
  EXPECT_EQ(m4096.num_layers(), 17);
}

TEST(HierGeometry, LayerOfPairFollowsTopologyTiers) {
  // hier256: 8 cores/cluster, 8 clusters/die (64 cores/die), 4 dies.
  const Machine m = topo::hier256();
  EXPECT_EQ(m.layer(0, 0), -1);    // same core
  EXPECT_EQ(m.layer(0, 7), 0);     // same cluster
  EXPECT_EQ(m.layer(0, 8), 1);     // next cluster, same die
  EXPECT_EQ(m.layer(0, 63), 1);    // last core of die 0
  EXPECT_EQ(m.layer(0, 64), 2);    // die distance 1
  EXPECT_EQ(m.layer(0, 128), 3);   // die distance 2
  EXPECT_EQ(m.layer(0, 255), 4);   // die distance 3
  EXPECT_EQ(m.layer(255, 0), 4);   // symmetric
  EXPECT_EQ(m.layer(64, 127), 1);  // within die 1
}

TEST(HierGeometry, LatencyTableExtrapolation) {
  // Defaults: L0 = 14, L1 = 14 * 3.1, L2 = L1 * 1.7, then +7 ns per
  // extra die hop (docs/MODEL.md "Latency-table extrapolation").
  const Machine m = topo::hier256();
  EXPECT_DOUBLE_EQ(m.layer_info(0).ns, 14.0);
  EXPECT_DOUBLE_EQ(m.layer_info(1).ns, 14.0 * 3.1);
  EXPECT_DOUBLE_EQ(m.layer_info(2).ns, 14.0 * 3.1 * 1.7);
  EXPECT_DOUBLE_EQ(m.layer_info(3).ns, 14.0 * 3.1 * 1.7 + 7.0);
  EXPECT_DOUBLE_EQ(m.layer_info(4).ns, 14.0 * 3.1 * 1.7 + 14.0);
  // Layer latencies must be monotone in distance.
  for (int i = 1; i < m.num_layers(); ++i)
    EXPECT_GT(m.layer_info(i).ns, m.layer_info(i - 1).ns);
  // comm_ns reads the table through the layer matrix.
  EXPECT_DOUBLE_EQ(m.comm_ns(0, 1), 14.0);
  EXPECT_DOUBLE_EQ(m.comm_ns(0, 255), 14.0 * 3.1 * 1.7 + 14.0);
}

TEST(HierGeometry, CustomRatiosPropagate) {
  HierSpec spec;
  spec.cores_per_cluster = 4;
  spec.clusters_per_die = 4;
  spec.dies = 2;
  spec.cluster_ns = 10.0;
  spec.cluster_ratio = 2.0;
  spec.die_ratio = 3.0;
  const Machine m = topo::make_hier_machine(spec);
  EXPECT_EQ(m.num_cores(), 32);
  EXPECT_EQ(m.num_layers(), 3);
  EXPECT_DOUBLE_EQ(m.layer_info(1).ns, 20.0);
  EXPECT_DOUBLE_EQ(m.layer_info(2).ns, 60.0);
  EXPECT_EQ(m.name(), "hier32");
}

TEST(HierGeometry, RejectsNonPhysicalSpecs) {
  HierSpec too_big;
  too_big.cores_per_cluster = 16;
  too_big.clusters_per_die = 16;
  too_big.dies = 17;  // 4352 > 4096
  EXPECT_THROW(
      {
        try {
          topo::make_hier_machine(too_big);
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find("above the cap of 4096"),
                    std::string::npos)
              << e.what();
          throw;
        }
      },
      std::invalid_argument);

  HierSpec tiny;
  tiny.cores_per_cluster = 1;
  EXPECT_THROW(topo::make_hier_machine(tiny), std::invalid_argument);

  HierSpec bad_ratio;
  bad_ratio.cluster_ratio = 0.5;
  EXPECT_THROW(topo::make_hier_machine(bad_ratio), std::invalid_argument);

  HierSpec bad_die;
  bad_die.die_ratio = 0.0;
  EXPECT_THROW(topo::make_hier_machine(bad_die), std::invalid_argument);

  // 130 dies fit the core cap but not the byte-coded layer index: the
  // error names the die count, not an internal layer matrix.
  HierSpec many_dies;
  many_dies.cores_per_cluster = 2;
  many_dies.clusters_per_die = 2;
  many_dies.dies = 130;
  try {
    topo::make_hier_machine(many_dies);
    ADD_FAILURE() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("dies must be <= 127"),
              std::string::npos)
        << e.what();
  }
  many_dies.dies = 127;  // the largest: die distance 126 is layer 127
  const Machine widest = topo::make_hier_machine(many_dies);
  EXPECT_EQ(widest.num_layers(), 128);
  EXPECT_EQ(widest.layer(0, widest.num_cores() - 1), 127);
}

TEST(HierGeometry, WiredThroughMachineByName) {
  EXPECT_EQ(topo::machine_by_name("hier256").num_cores(), 256);
  EXPECT_EQ(topo::machine_by_name("HIER1024").num_cores(), 1024);
  EXPECT_EQ(topo::machine_by_name("hier4096").num_cores(), 4096);
  EXPECT_THROW(topo::machine_by_name("hier512"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Multi-word bitmask directory (>64 sharers per line)
// ---------------------------------------------------------------------------

// Sharers parked at every 64-core word boundary: a single release write
// must invalidate / wake copies tracked in every word of the bitmask.
std::vector<int> boundary_cores(int num_cores) {
  std::vector<int> cores;
  for (int c : {1, 62, 63, 64, 65, 127, 128, 129, 191, 192})
    if (c < num_cores) cores.push_back(c);
  cores.push_back(num_cores - 1);
  return cores;
}

struct Script {
  explicit Script(const Machine& m) : mem(eng, m) {}
  sim::Engine eng;
  sim::MemSystem mem;
};

sim::SimThread read_from_all(Script& s, sim::VarId v,
                             const std::vector<int>& cores) {
  for (int c : cores) co_await s.mem.read(c, v);
  co_await s.mem.write(0, v, 1);  // invalidate every tracked copy
}

TEST(HierDirectory, WriteInvalidatesSharersInEveryWord) {
  for (const Machine& m : topo::hier_machines()) {
    Script s(m);
    const sim::VarId v = s.mem.new_var(0);
    const auto cores = boundary_cores(m.num_cores());
    s.eng.spawn(read_from_all(s, v, cores));
    ASSERT_TRUE(s.eng.run());
    // Core 0's write invalidates every other core's copy — including the
    // sharers tracked in bitmask words 1..63 (cores >= 64).
    EXPECT_EQ(s.mem.stats().invalidations, cores.size())
        << "on " << m.name();
  }
}

sim::SimThread churn_owner(Script& s, sim::VarId v,
                           const std::vector<int>& cores, int rounds) {
  for (int r = 0; r < rounds; ++r)
    for (int c : cores)
      co_await s.mem.write(c, v, static_cast<std::uint64_t>(c));
}

TEST(HierDirectory, OwnershipChurnAcrossWords) {
  // Ownership migrates between cores whose directory bits live in
  // different words; every handoff invalidates exactly the previous
  // owner's copy.
  const Machine m = topo::hier1024();
  Script s(m);
  const sim::VarId v = s.mem.new_var(0);
  const std::vector<int> cores = {0, 63, 64, 511, 512, 1023};
  constexpr int kRounds = 4;
  s.eng.spawn(churn_owner(s, v, cores, kRounds));
  ASSERT_TRUE(s.eng.run());
  // First write takes ownership with no copies to kill; every subsequent
  // write invalidates exactly one previous owner.
  EXPECT_EQ(s.mem.stats().invalidations, cores.size() * kRounds - 1);
  EXPECT_EQ(s.mem.stats().remote_writes, cores.size() * kRounds);
}

sim::SimThread spin_at(Script& s, int core, sim::VarId v) {
  co_await s.mem.spin_until(core, v, sim::SpinPred::ge(1));
}

sim::SimThread wake_all(Script& s, sim::VarId v) {
  co_await sim::delay(s.eng, 1'000'000);  // let every spinner subscribe
  co_await s.mem.write(0, v, 1);
}

TEST(HierDirectory, WakeWaitersAcrossWordBoundaries) {
  // Spinners parked on cores spanning all bitmask words must all be woken
  // by one write; a directory that only scans word 0 deadlocks this test.
  for (const Machine& m : topo::hier_machines()) {
    Script s(m);
    const sim::VarId v = s.mem.new_var(0);
    const auto cores = boundary_cores(m.num_cores());
    for (int c : cores) s.eng.spawn(spin_at(s, c, v));
    s.eng.spawn(wake_all(s, v));
    ASSERT_TRUE(s.eng.run()) << "spinner never woken on " << m.name();
    EXPECT_GE(s.mem.stats().poll_reads, cores.size()) << "on " << m.name();
  }
}

// ---------------------------------------------------------------------------
// Hierarchical barriers on hierarchical machines
// ---------------------------------------------------------------------------

simbar::SimRunConfig hier_cfg(int threads) {
  simbar::SimRunConfig cfg;
  cfg.threads = threads;
  cfg.iterations = 6;
  cfg.warmup = 2;
  return cfg;
}

TEST(HierBarriers, RunTwiceIsBitIdentical) {
  const Machine m = topo::hier256();
  for (Algo a : {Algo::kClusterAmo, Algo::kCentral2, Algo::kOptimized}) {
    const auto r1 =
        simbar::measure_barrier(m, simbar::sim_factory(a, {}), hier_cfg(256));
    const auto r2 =
        simbar::measure_barrier(m, simbar::sim_factory(a, {}), hier_cfg(256));
    EXPECT_EQ(r1.mean_overhead_ns, r2.mean_overhead_ns) << to_string(a);
    EXPECT_EQ(r1.per_episode_ns, r2.per_episode_ns) << to_string(a);
  }
}

TEST(HierBarriers, GoldenOverheads) {
  // Pinned golden means for one (machine, algo, threads) cell per new
  // machine x algorithm pair.  Exact doubles: the simulator is
  // deterministic, so any drift is a semantic change to the cost model or
  // an algorithm — rebaseline deliberately or fix the regression.
  struct Golden {
    const char* machine;
    Algo algo;
    int threads;
    double mean_overhead_ns;
  };
  const std::vector<Golden> goldens = {
      {"hier256", Algo::kClusterAmo, 256, 1148.3900000000001},
      {"hier256", Algo::kCentral2, 256, 2760.6572500000002},
      {"hier1024", Algo::kClusterAmo, 1024, 2349.4767499999998},
      {"hier1024", Algo::kCentral2, 1024, 11595.01525},
  };
  for (const Golden& g : goldens) {
    const Machine m = topo::machine_by_name(g.machine);
    const auto r = simbar::measure_barrier(
        m, simbar::sim_factory(g.algo, {}), hier_cfg(g.threads));
    EXPECT_EQ(r.mean_overhead_ns, g.mean_overhead_ns)
        << g.machine << "/" << to_string(g.algo) << "@" << g.threads
        << ": measured " << std::setprecision(17) << r.mean_overhead_ns;
  }
}

TEST(HierBarriers, AmoChampionTreeHandlesPartialTiers) {
  // 100 threads with Nc = 8: 13 clusters (last has 4 members), 2
  // supergroups (last has 5 clusters).  The cumulative-counter targets
  // must use the partial populations, or the barrier hangs.
  const Machine m = topo::hier256();
  for (Algo a : {Algo::kClusterAmo, Algo::kCentral2}) {
    const auto r =
        simbar::measure_barrier(m, simbar::sim_factory(a, {}), hier_cfg(100));
    EXPECT_GT(r.mean_overhead_ns, 0.0) << to_string(a);
  }
}

TEST(HierBarriers, InAutotuneCandidateSet) {
  const Machine m = topo::hier256();
  const auto grid = simbar::default_tune_candidates(m);
  int amo = 0, central2 = 0;
  for (const auto& [algo, opt] : grid) {
    if (algo == Algo::kClusterAmo) ++amo;
    if (algo == Algo::kCentral2) ++central2;
  }
  EXPECT_EQ(amo, 1);
  EXPECT_EQ(central2, 1);
}

}  // namespace
}  // namespace armbar
