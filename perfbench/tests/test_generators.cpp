// Generator tests: the streams the benchmark feeds the service are what
// its correctness gate assumes.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "armbar/svc/job.hpp"
#include "armbar/topo/platforms.hpp"
#include "cells.hpp"

namespace {

using perfbench::job_line;
namespace svc = armbar::svc;

std::string key_of_line(const std::string& line) {
  return svc::cache_key(svc::parse_job_line(line));
}

TEST(Generators, JobLineRoundTripsToTheSameCacheKey) {
  for (const svc::JobSpec& s : perfbench::cold_cells())
    ASSERT_EQ(key_of_line(job_line(s)), svc::cache_key(s)) << job_line(s);
  for (const perfbench::GridCell& c : perfbench::sweep_grid()) {
    const svc::JobSpec s = perfbench::to_spec(c);
    ASSERT_EQ(key_of_line(job_line(s)), svc::cache_key(s)) << job_line(s);
  }
}

TEST(Generators, ColdCellsHavePairwiseDistinctCacheKeys) {
  const auto cells = perfbench::cold_cells();
  std::set<std::string> keys;
  for (const svc::JobSpec& s : cells) keys.insert(key_of_line(job_line(s)));
  EXPECT_EQ(keys.size(), cells.size());
  // About a quarter of the cells carry a fault.
  const auto faulted = std::count_if(cells.begin(), cells.end(),
                                     [](const svc::JobSpec& s) {
                                       return s.fault.any();
                                     });
  EXPECT_EQ(static_cast<std::size_t>(faulted), cells.size() / 4);
}

TEST(Generators, ColdCellsFitTheirMachines) {
  for (const svc::JobSpec& s : perfbench::cold_cells())
    ASSERT_LE(s.threads, armbar::topo::machine_by_name(s.machine).num_cores())
        << job_line(s);
}

TEST(Generators, SeedChangesTheOrderButNotTheSet) {
  const auto a = perfbench::permutation(1000, 1);
  const auto b = perfbench::permutation(1000, 2);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, perfbench::permutation(1000, 1));
  std::vector<std::uint32_t> sa = a, sb = b;
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  EXPECT_EQ(sa, sb);
  for (std::uint32_t i = 0; i < 1000; ++i) ASSERT_EQ(sa[i], i);

  const std::size_t n = perfbench::warm_cells().size();
  auto wa = perfbench::warm_pass(n, 5, 1);
  auto wb = perfbench::warm_pass(n, 5, 2);
  EXPECT_NE(wa, wb);
  std::sort(wa.begin(), wa.end());
  std::sort(wb.begin(), wb.end());
  EXPECT_EQ(wa, wb);
}

TEST(Generators, EveryWarmLineIsInThePrimedSet) {
  const auto cells = perfbench::warm_cells();
  std::set<std::string> primed;
  for (const svc::JobSpec& s : cells) primed.insert(key_of_line(job_line(s)));
  EXPECT_EQ(primed.size(), cells.size());
  for (const std::uint32_t i : perfbench::warm_pass(cells.size(), 3, 7)) {
    ASSERT_LT(i, cells.size());
    ASSERT_TRUE(primed.count(key_of_line(job_line(cells[i]))));
  }
}

TEST(Generators, SweepGridIsTheFigureGrid) {
  const auto grid = perfbench::sweep_grid();
  ASSERT_EQ(grid.size(), 3u * 7u * 12u + 8u);
  EXPECT_EQ(std::count_if(grid.begin(), grid.end(),
                          [](const perfbench::GridCell& c) { return c.hier; }),
            8);
}

}  // namespace
