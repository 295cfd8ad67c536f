#pragma once
// Deterministic discrete-event engine.
//
// Events are (time, sequence) pairs resuming coroutine handles; ties on
// time break by insertion sequence, so a simulation is a pure function of
// its inputs.  Time is integer picoseconds (armbar/util/vtime.hpp).

#include <algorithm>
#include <chrono>
#include <coroutine>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "armbar/sim/task.hpp"
#include "armbar/util/vtime.hpp"

namespace armbar::sim {

using util::Picos;

class Engine {
 public:
  Engine() = default;
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  Picos now() const noexcept { return now_; }

  /// Enqueue @p h to resume at absolute time @p t (>= now).  Inline: this
  /// is the single most-called function of a simulation (one call per
  /// event) and most callers live in other translation units.
  ///
  /// Fast path: popping an event leaves a hole at the heap root, and a
  /// resumed coroutine almost always schedules exactly one successor
  /// before the next pop.  That successor is not sifted at all — it is
  /// STAGED in a side slot, and the event loop compares it against the
  /// live heap minimum (the cheapest of the stale root's children): when
  /// the staged event is globally next, which it is for every serialized
  /// chain and every same-timestamp drain, it resumes with zero heap
  /// element moves.  Only when some heap event precedes it does it pay
  /// the sift into the hole that scheduling used to pay unconditionally.
  /// A second schedule before the next pop commits the staged event into
  /// the hole and degrades gracefully to the classic push + sift-up.
  void schedule(Picos t, std::coroutine_handle<> h) {
    if (t < now_) throw std::logic_error("Engine::schedule: time in the past");
    const Event e{t, next_seq_++, h};
    if (root_hole_) {
      if (!staged_) {
        staged_event_ = e;
        staged_ = true;
        return;
      }
      root_hole_ = false;
      sift_down_from(0, staged_event_);
      staged_ = false;
    }
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
  }

  /// Take ownership of a simulated thread and schedule its first resume
  /// at the current time.  Returns an id usable with finished().
  std::size_t spawn(SimThread&& thread);

  /// Run until the event queue drains.  Throws the first unhandled
  /// exception of any simulated thread.  Returns true if every spawned
  /// thread ran to completion; false indicates a deadlock (some thread is
  /// still suspended with no pending event — e.g. a spin that can never be
  /// satisfied).  Throws sim::DeadlockError when a watchdog budget trips:
  /// kEventBudget once @p max_events events retired without draining the
  /// queue (livelock / runaway episode), kTimeBudget before processing any
  /// event scheduled past the simulated-time budget.
  bool run(std::uint64_t max_events = kDefaultMaxEvents);

  /// Simulated-time watchdog for run(): abort (sim::DeadlockError) before
  /// processing any event later than @p t picoseconds.  0 restores the
  /// default (unlimited).  One predictable compare per event; healthy runs
  /// are bit-identical with any budget they fit inside.
  void set_time_budget(Picos t) noexcept {
    time_budget_ = t == 0 ? kNoTimeBudget : t;
  }
  Picos time_budget() const noexcept { return time_budget_; }

  /// Wall-clock watchdog for run(): abort (sim::DeadlockError, kind
  /// "deadline") once REAL elapsed time passes @p deadline.  Unlike the
  /// simulated-time budget this is cooperative and amortized — the clock
  /// is read once every kWallCheckEvents events, so healthy runs pay one
  /// predictable branch per event and the abort lands within a check
  /// interval of the deadline.  Never affects simulated timestamps:
  /// a run that finishes is bit-identical with or without a deadline.
  void set_wall_deadline(
      std::chrono::steady_clock::time_point deadline) noexcept {
    wall_deadline_ = deadline;
    wall_armed_ = true;
  }
  void clear_wall_deadline() noexcept { wall_armed_ = false; }

  /// True once the thread returned (valid after run()).
  bool finished(std::size_t thread_id) const;

  std::size_t num_threads() const noexcept { return threads_.size(); }
  std::uint64_t events_processed() const noexcept { return events_; }

  /// Pre-size the event heap and thread table (hot-path allocation
  /// avoidance; callers that know the simulation size, e.g. the sweep
  /// runner, reserve once up front).
  void reserve(std::size_t threads, std::size_t events);

  static constexpr std::uint64_t kDefaultMaxEvents = 200'000'000;
  static constexpr Picos kNoTimeBudget = ~Picos{0};
  /// Events between wall-clock reads when a deadline is armed (power of
  /// two; ~microseconds of work per read, so deadline overshoot is tiny).
  static constexpr std::uint64_t kWallCheckEvents = 8192;

 private:
  struct Event {
    Picos t;
    std::uint64_t seq;
    std::coroutine_handle<> h;
  };

  /// Min-heap order: earliest time first, insertion sequence breaking
  /// ties — (t, seq) keys are unique, so any correct min-heap pops events
  /// in exactly one order (deterministic replay).  The pair compare is
  /// fused into one unsigned 128-bit compare (t in the high half): same
  /// strict order, branchless where a two-field compare mispredicts on
  /// the tie-heavy traffic of same-timestamp drains.
  __extension__ typedef unsigned __int128 Key;
  static Key key(const Event& e) noexcept {
    return (static_cast<Key>(e.t) << 64) | e.seq;
  }
  static bool before(const Event& a, const Event& b) noexcept {
    return key(a) < key(b);
  }

  /// Restore heap order after appending at @p i (hole-percolation: the
  /// moved element is written once at its final slot).
  void sift_up(std::size_t i) noexcept {
    const Event e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kHeapArity;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  /// Percolate the hole at @p i down the min-child chain until @p e fits,
  /// then write @p e there (the only write of e).
  void sift_down_from(std::size_t i, const Event& e) noexcept;

  /// Index of the earliest of the children heap_[first .. first + 4) that
  /// exist (first < n = live size).  A full group is a two-level
  /// compare-select tournament: two independent pair compares, then one
  /// between the winners, every select written as data (conditional
  /// moves and a mask), so no compare of the four keys is a branch to
  /// mispredict.  Only the last internal node can have a partial group.
  std::size_t min_child(std::size_t first, std::size_t n) const noexcept {
    const Event* c = heap_.data() + first;
    if (first + kHeapArity <= n) {
      const Key k0 = key(c[0]), k1 = key(c[1]);
      const Key k2 = key(c[2]), k3 = key(c[3]);
      const std::size_t lo = k1 < k0;       // winner of {0, 1}
      const std::size_t hi = 2 + (k3 < k2);  // winner of {2, 3}
      const Key k_lo = lo ? k1 : k0;
      const Key k_hi = hi == 3 ? k3 : k2;
      const std::size_t take_hi = 0 - static_cast<std::size_t>(k_hi < k_lo);
      return first + (lo ^ ((lo ^ hi) & take_hi));
    }
    std::size_t best = 0;
    for (std::size_t k = 1; k < n - first; ++k)
      if (before(c[k], c[best])) best = k;
    return first + best;
  }

  /// 4-ary min-heap over a plain vector: half the depth of a binary heap
  /// (the event loop pops one event per simulated operation, so sift
  /// depth is pure per-event overhead), and the four children of a node
  /// share cachelines.  Unlike std::priority_queue the storage is
  /// reservable, so steady-state simulation never reallocates event nodes.
  /// When root_hole_ is set, heap_[0] is a popped (stale) slot and the
  /// live elements are heap_[1..size): schedule() stages into the side
  /// slot or fills the hole, and the event loop repairs the hole with the
  /// last leaf before the next pop.  When staged_ is set (implies
  /// root_hole_), staged_event_ holds a scheduled event that has not been
  /// inserted into the heap yet; the event loop resumes it directly if it
  /// is the global minimum.
  static constexpr std::size_t kHeapArity = 4;
  std::vector<Event> heap_;
  bool root_hole_ = false;
  bool staged_ = false;
  Event staged_event_{};
  std::vector<SimThread::handle_type> threads_;
  Picos now_ = 0;
  Picos time_budget_ = kNoTimeBudget;
  std::chrono::steady_clock::time_point wall_deadline_{};
  bool wall_armed_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_ = 0;
};

/// Awaitable: suspend the current simulated thread until absolute time t.
struct WakeAt {
  Engine& engine;
  Picos t;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const { engine.schedule(t, h); }
  void await_resume() const noexcept {}
};

/// Awaitable: advance the current thread by @p d picoseconds.
inline WakeAt delay(Engine& engine, Picos d) {
  return WakeAt{engine, engine.now() + d};
}

}  // namespace armbar::sim
