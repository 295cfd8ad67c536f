// Tests for InflightSet, the in-flight completion-time multiset behind the
// memory model's contention terms.  Every query is checked against a naive
// reference multiset with the defining semantics: count_at(at) erases
// every entry <= at, then counts the rest.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "armbar/sim/inflight.hpp"
#include "armbar/util/prng.hpp"

namespace armbar::sim {
namespace {

using util::Picos;

struct NaiveInflight {
  std::multiset<Picos> finish;
  void add(Picos f) { finish.insert(f); }
  int count_at(Picos at) {
    finish.erase(finish.begin(), finish.upper_bound(at));
    return static_cast<int>(finish.size());
  }
};

/// Both sets fed the same operations, every answer compared.
struct Pair {
  InflightSet set;
  NaiveInflight ref;
  void add(Picos f) {
    set.add(f);
    ref.add(f);
  }
  void expect_count(Picos at) {
    const int want = ref.count_at(at);
    ASSERT_EQ(set.count_at(at), want) << "at " << at;
  }
};

TEST(Inflight, EmptySetCountsZero) {
  InflightSet s;
  EXPECT_EQ(s.count_at(0), 0);
  EXPECT_EQ(s.count_at(~Picos{0}), 0);
}

TEST(Inflight, EntryAtTheQueryTimeHasExpired) {
  InflightSet s;
  s.add(10);
  EXPECT_EQ(s.count_at(9), 1);
  EXPECT_EQ(s.count_at(10), 0);  // <= at: expired
}

TEST(Inflight, DescendingAddsStaySorted) {
  Pair p;
  for (Picos f = 100; f > 0; f -= 5) p.add(f);
  p.expect_count(0);  // below the minimum: nothing expires
  for (Picos at = 0; at <= 105; at += 7) p.expect_count(at);
}

TEST(Inflight, RepeatedQueriesAtOneTimeAgree) {
  Pair p;
  for (const Picos f : {Picos{40}, Picos{10}, Picos{30}, Picos{10},
                        Picos{20}, Picos{30}})
    p.add(f);
  for (int i = 0; i < 3; ++i) p.expect_count(10);
  for (int i = 0; i < 3; ++i) p.expect_count(25);
  p.add(5);  // below an already-passed query time
  p.expect_count(25);
  p.expect_count(25);
}

/// The consumed prefix is dropped once it is more than half the storage:
/// expire exactly half, then one more than half, of sets of every small
/// size, refilling after each query, so every query lands on either side
/// of the boundary with live entries before and after it.
TEST(Inflight, CompactionBoundary) {
  for (Picos n = 1; n <= 12; ++n) {
    for (Picos expired = 0; expired <= n; ++expired) {
      Pair p;
      for (Picos f = 1; f <= n; ++f) p.add(f * 10);
      p.expect_count(expired * 10);
      for (Picos f = 1; f <= n; ++f) p.add(expired * 10 + f * 3);
      p.expect_count(expired * 10 + 1);
      p.expect_count(expired * 10 + n * 2);
      p.expect_count(~Picos{0});
      p.add(1);
      p.expect_count(0);
    }
  }
}

/// Random mixes of nearly-in-order adds (the simulator's pattern: start
/// plus a small cost), occasional out-of-order and far-future adds, and
/// queries that move forward, stand still or step back.
TEST(Inflight, RandomizedMatchesNaiveMultiset) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    util::Xoshiro256 rng(seed);
    Pair p;
    Picos now = 0;
    const int ops = 50 + static_cast<int>(rng.below(400));
    for (int op = 0; op < ops; ++op) {
      switch (rng.below(6)) {
        case 0:
        case 1:
          p.add(now + 1 + rng.below(40));  // near-ordered finish
          break;
        case 2:
          p.add(rng.below(now + 200));  // anywhere, may be in the past
          break;
        case 3:
          now += rng.below(30);
          p.expect_count(now);
          break;
        case 4:
          p.expect_count(now);  // repeated time
          break;
        default:
          p.expect_count(now > 50 ? now - rng.below(50) : 0);  // step back
          break;
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    p.expect_count(~Picos{0});
  }
}

}  // namespace
}  // namespace armbar::sim
