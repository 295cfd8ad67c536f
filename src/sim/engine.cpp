#include "armbar/sim/engine.hpp"

#include <stdexcept>
#include <string>

#include "armbar/sim/error.hpp"

namespace armbar::sim {

Engine::~Engine() {
  // Destroy any still-suspended frames (finished frames are destroyed here
  // too: final_suspend keeps them alive until the engine releases them).
  for (auto h : threads_)
    if (h) h.destroy();
}

void Engine::reserve(std::size_t threads, std::size_t events) {
  threads_.reserve(threads);
  heap_.reserve(events);
}

std::size_t Engine::spawn(SimThread&& thread) {
  auto h = thread.release();
  if (!h) throw std::invalid_argument("Engine::spawn: empty thread");
  threads_.push_back(h);
  schedule(now_, h);
  return threads_.size() - 1;
}

void Engine::sift_down_from(std::size_t i, const Event& e) noexcept {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = i * kHeapArity + 1;
    if (first_child >= n) break;
    const std::size_t best = min_child(first_child, n);
    if (!before(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

bool Engine::run(std::uint64_t max_events) {
  for (;;) {
    Event ev{};
    if (staged_) {
      // A resumed coroutine staged exactly one successor (the steady
      // state).  The live heap is heap_[1..size) — the root slot is the
      // stale hole — so the heap minimum is the cheapest of the root's
      // children.  If the staged event precedes it, resume it with zero
      // heap traffic: serialized chains and same-timestamp drains run
      // entirely through this path, never re-touching the heap.
      const std::size_t n = heap_.size();
      staged_ = false;
      if (n > 1 && before(heap_[min_child(1, n)], staged_event_)) {
        // A heap event precedes the staged one: commit the staged event
        // into the hole (the sift schedule() skipped), then pop normally.
        sift_down_from(0, staged_event_);
        ev = heap_.front();
        // root_hole_ stays set for the next pop's hole.
      } else {
        ev = staged_event_;
        // The hole survives: the next schedule() can stage again.
      }
    } else {
      if (root_hole_) {
        // The resumed coroutine scheduled nothing (finished or parked):
        // repair the hole with the last leaf before the next pop.
        root_hole_ = false;
        const Event last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty()) sift_down_from(0, last);
      }
      if (heap_.empty()) break;
      ev = heap_.front();
      root_hole_ = true;
    }
    if (events_ >= max_events)
      throw DeadlockError(
          DeadlockError::Kind::kEventBudget,
          "Engine::run: event budget exhausted (" +
              std::to_string(max_events) +
              " events retired without draining the queue — livelock or "
              "runaway episode)",
          now_, events_);
    if (ev.t > time_budget_)
      throw DeadlockError(
          DeadlockError::Kind::kTimeBudget,
          "Engine::run: simulated-time budget exhausted (next event at " +
              std::to_string(ev.t) + " ps exceeds the " +
              std::to_string(time_budget_) + " ps watchdog budget)",
          now_, events_);
    // Amortized wall-clock deadline: one clock read per kWallCheckEvents
    // events, only when armed.  Cooperative by design — the engine is the
    // single place every simulated thread passes through, so no thread
    // needs to be killed to enforce a real-time bound.
    if (wall_armed_ && (events_ & (kWallCheckEvents - 1)) == 0 &&
        std::chrono::steady_clock::now() > wall_deadline_)
      throw DeadlockError(
          DeadlockError::Kind::kWallDeadline,
          "Engine::run: wall-clock deadline exceeded after " +
              std::to_string(events_) + " events (host overload or an "
              "underestimated job; transient — safe to retry)",
          now_, events_);
    now_ = ev.t;
    ++events_;
    ev.h.resume();
  }
  // Rethrow the first simulated-thread exception, in spawn order.
  for (auto h : threads_) {
    if (h && h.promise().error) std::rethrow_exception(h.promise().error);
  }
  for (auto h : threads_)
    if (h && !h.promise().done) return false;  // deadlock
  return true;
}

bool Engine::finished(std::size_t thread_id) const {
  const auto h = threads_.at(thread_id);
  return h && h.promise().done;
}

}  // namespace armbar::sim
