// Tests for the discrete-event engine and coroutine plumbing.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "armbar/sim/engine.hpp"
#include "armbar/util/prng.hpp"

namespace armbar::sim {
namespace {

SimThread record_wakeups(Engine& eng, std::vector<Picos>& log,
                         std::vector<Picos> delays) {
  for (const Picos d : delays) {
    co_await delay(eng, d);
    log.push_back(eng.now());
  }
}

TEST(Engine, AdvancesTimeThroughDelays) {
  Engine eng;
  std::vector<Picos> log;
  eng.spawn(record_wakeups(eng, log, {10, 5, 100}));
  EXPECT_TRUE(eng.run());
  EXPECT_EQ(log, (std::vector<Picos>{10, 15, 115}));
  EXPECT_EQ(eng.now(), 115u);
  EXPECT_TRUE(eng.finished(0));
}

TEST(Engine, InterleavesThreadsByTime) {
  Engine eng;
  std::vector<Picos> log;
  eng.spawn(record_wakeups(eng, log, {10, 10}));  // wakes at 10, 20
  eng.spawn(record_wakeups(eng, log, {5, 10}));   // wakes at 5, 15
  EXPECT_TRUE(eng.run());
  EXPECT_EQ(log, (std::vector<Picos>{5, 10, 15, 20}));
}

TEST(Engine, TiesBreakByScheduleOrder) {
  Engine eng;
  std::vector<int> order;
  auto tagged = [](Engine& e, std::vector<int>& out, int tag) -> SimThread {
    co_await delay(e, 50);
    out.push_back(tag);
  };
  eng.spawn(tagged(eng, order, 1));
  eng.spawn(tagged(eng, order, 2));
  eng.spawn(tagged(eng, order, 3));
  EXPECT_TRUE(eng.run());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, DetectsNeverScheduledThreadAsDeadlock) {
  Engine eng;
  // A coroutine that suspends forever: schedule nothing.
  struct Never {
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<>) const noexcept {}
    void await_resume() const noexcept {}
  };
  auto hang = [](Engine&) -> SimThread { co_await Never{}; };
  eng.spawn(hang(eng));
  EXPECT_FALSE(eng.run());
  EXPECT_FALSE(eng.finished(0));
}

TEST(Engine, PropagatesCoroutineException) {
  Engine eng;
  auto thrower = [](Engine& e) -> SimThread {
    co_await delay(e, 1);
    throw std::runtime_error("sim-error");
  };
  eng.spawn(thrower(eng));
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, RejectsSchedulingInThePast) {
  Engine eng;
  std::vector<Picos> log;
  eng.spawn(record_wakeups(eng, log, {100}));
  EXPECT_TRUE(eng.run());
  EXPECT_THROW(eng.schedule(50, nullptr), std::logic_error);
}

TEST(Engine, EventBudgetGuardsRunaways) {
  Engine eng;
  auto forever = [](Engine& e) -> SimThread {
    for (;;) co_await delay(e, 1);
  };
  eng.spawn(forever(eng));
  EXPECT_THROW(eng.run(/*max_events=*/1000), std::runtime_error);
}

TEST(Engine, ZeroDelayRunsInInsertionOrder) {
  Engine eng;
  std::vector<int> order;
  auto quick = [](Engine& e, std::vector<int>& out, int tag) -> SimThread {
    co_await delay(e, 0);
    out.push_back(tag);
    co_await delay(e, 0);
    out.push_back(tag + 10);
  };
  eng.spawn(quick(eng, order, 1));
  eng.spawn(quick(eng, order, 2));
  EXPECT_TRUE(eng.run());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 11, 12}));
}

// Events scheduled AT the current timestamp while a same-timestamp batch
// is draining must join the back of that batch, in schedule order.  Each
// resume here stages its zero-delay successor while older same-t events
// are still in the heap, so the staged event must lose the comparison
// against the live heap minimum and be committed, not resumed early.
TEST(Engine, MidDrainSchedulesJoinBackOfSameTimestampBatch) {
  Engine eng;
  std::vector<int> order;
  auto two_step = [](Engine& e, std::vector<int>& out, int tag) -> SimThread {
    co_await delay(e, 10);
    out.push_back(tag);
    co_await delay(e, 0);  // scheduled at now, mid-drain of the t=10 batch
    out.push_back(tag + 100);
  };
  eng.spawn(two_step(eng, order, 1));
  eng.spawn(two_step(eng, order, 2));
  eng.spawn(two_step(eng, order, 3));
  EXPECT_TRUE(eng.run());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 101, 102, 103}));
  EXPECT_EQ(eng.now(), 10u);
  EXPECT_EQ(eng.events_processed(), 9u);  // 3 spawns + 3 wakes + 3 successors
}

// A serialized chain (each resume schedules exactly one successor that is
// the global minimum) with a far-future sleeper parked in the heap: the
// staged successor must win against the sleeper every step and the
// sleeper must still run last.
TEST(Engine, SerializedChainRunsPastParkedSleeper) {
  Engine eng;
  std::vector<Picos> log;
  eng.spawn(record_wakeups(eng, log, {1, 1, 1, 1, 1}));
  eng.spawn(record_wakeups(eng, log, {1000}));
  EXPECT_TRUE(eng.run());
  EXPECT_EQ(log, (std::vector<Picos>{1, 2, 3, 4, 5, 1000}));
}

// Tie-heavy stress: 16 threads whose delays cycle through {0..3} collide
// on the same timestamps constantly.  Two identical engines must replay
// the exact same wake-up sequence (determinism survives any heap/staging
// layout), and simulated time must never move backwards.
TEST(Engine, HeavyTieCollisionsReplayIdentically) {
  using Wake = std::pair<Picos, int>;
  auto run_once = [](std::vector<Wake>& log) {
    Engine eng;
    auto worker = [](Engine& e, std::vector<Wake>& out, int tag) -> SimThread {
      for (int i = 0; i < 50; ++i) {
        co_await delay(e, static_cast<Picos>((tag * 7 + i * 3) % 4));
        out.push_back({e.now(), tag});
      }
    };
    for (int t = 0; t < 16; ++t) eng.spawn(worker(eng, log, t));
    EXPECT_TRUE(eng.run());
  };
  std::vector<Wake> a, b;
  run_once(a);
  run_once(b);
  ASSERT_EQ(a.size(), 16u * 50u);
  EXPECT_EQ(a, b);
  for (std::size_t i = 1; i < a.size(); ++i)
    ASSERT_LE(a[i - 1].first, a[i].first) << i;
}

// Randomized pop-order differential against a std::priority_queue on
// (t, seq).  Workers follow scripted delays; a step may also schedule a
// "pulse" actor, which logs and parks without scheduling anything.  So a
// resume schedules zero (a pulse, a finishing worker), one (the staged
// successor) or two (successor plus pulse: the second commits the staged
// one) events.  With 1-9 actors the heap holds a handful of events, so
// the sifts and the staged check meet partial child groups, including a
// root with fewer than four live children.
struct Step {
  Picos delay;
  int pulse;  ///< pulse actor to schedule too, or -1
  Picos pulse_delay;
};

using Wake = std::pair<Picos, int>;  // (time, actor)

/// Suspend the worker until now + delay; also schedule @p pulse (if any).
struct StepAwait {
  Engine& eng;
  const Step& step;
  std::coroutine_handle<> pulse;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    eng.schedule(eng.now() + step.delay, h);
    if (pulse) eng.schedule(eng.now() + step.pulse_delay, pulse);
  }
  void await_resume() const noexcept {}
};

/// Suspend without scheduling anything (someone else wakes us).
struct Park {
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<>) const noexcept {}
  void await_resume() const noexcept {}
};

SimThread scripted_worker(Engine& eng, std::vector<Wake>& log, int id,
                          const std::vector<Step>& script,
                          const std::vector<std::coroutine_handle<>>& pulses) {
  log.push_back({eng.now(), id});
  for (const Step& st : script) {
    std::coroutine_handle<> pulse;
    if (st.pulse >= 0) pulse = pulses[static_cast<std::size_t>(st.pulse)];
    co_await StepAwait{eng, st, pulse};
    log.push_back({eng.now(), id});
  }
}

SimThread pulse_actor(Engine& eng, std::vector<Wake>& log, int id,
                      int wakes) {
  log.push_back({eng.now(), id});
  for (int k = 0; k < wakes; ++k) {
    co_await Park{};
    log.push_back({eng.now(), id});
  }
}

/// The same actors replayed on a std::priority_queue keyed on (t, seq).
std::vector<Wake> reference_order(
    const std::vector<std::vector<Step>>& scripts, int pulses) {
  using Ev = std::tuple<Picos, std::uint64_t, int>;
  std::priority_queue<Ev, std::vector<Ev>, std::greater<>> pq;
  std::uint64_t seq = 0;
  const int workers = static_cast<int>(scripts.size());
  for (int a = 0; a < workers + pulses; ++a) pq.push({0, seq++, a});
  std::vector<std::size_t> pos(scripts.size(), 0);
  std::vector<Wake> log;
  while (!pq.empty()) {
    const auto [t, s, actor] = pq.top();
    pq.pop();
    log.push_back({t, actor});
    if (actor >= workers) continue;  // a pulse schedules nothing
    const auto w = static_cast<std::size_t>(actor);
    if (pos[w] == scripts[w].size()) continue;  // finished
    const Step& st = scripts[w][pos[w]++];
    pq.push({t + st.delay, seq++, actor});
    if (st.pulse >= 0) pq.push({t + st.pulse_delay, seq++, workers + st.pulse});
  }
  return log;
}

TEST(Engine, PopOrderMatchesPriorityQueueOnTimeAndSequence) {
  for (int actors = 1; actors <= 9; ++actors) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      util::Xoshiro256 rng(seed * 131 + static_cast<std::uint64_t>(actors));
      const int pulses = static_cast<int>(rng.below(
          static_cast<std::uint64_t>(actors)));  // keep >= 1 worker
      const int workers = actors - pulses;
      std::vector<std::vector<Step>> scripts(
          static_cast<std::size_t>(workers));
      std::vector<int> pulse_wakes(static_cast<std::size_t>(pulses), 0);
      for (auto& script : scripts) {
        const std::size_t len = 1 + rng.below(30);
        for (std::size_t i = 0; i < len; ++i) {
          Step st{rng.below(4), -1, rng.below(6)};  // tie-heavy delays
          if (pulses > 0 && rng.below(3) == 0) {
            st.pulse = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(pulses)));
            ++pulse_wakes[static_cast<std::size_t>(st.pulse)];
          }
          script.push_back(st);
        }
      }

      Engine eng;
      std::vector<Wake> log;
      // Pulses are created first (their handles are in the workers'
      // scripts) but spawned after the workers, as the reference orders.
      std::vector<SimThread::handle_type> pulse_threads;
      std::vector<std::coroutine_handle<>> handles;
      for (int p = 0; p < pulses; ++p) {
        pulse_threads.push_back(
            pulse_actor(eng, log, workers + p,
                        pulse_wakes[static_cast<std::size_t>(p)])
                .release());
        handles.push_back(pulse_threads.back());
      }
      for (int w = 0; w < workers; ++w)
        eng.spawn(scripted_worker(eng, log, w,
                                  scripts[static_cast<std::size_t>(w)],
                                  handles));
      for (const auto h : pulse_threads) eng.spawn(SimThread(h));
      ASSERT_TRUE(eng.run()) << "actors " << actors << " seed " << seed;
      ASSERT_EQ(log, reference_order(scripts, pulses))
          << "actors " << actors << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace armbar::sim
