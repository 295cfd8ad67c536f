#pragma once
// Lock-free single-producer / single-consumer ring buffer.
//
// The sweep service (armbar/svc/service.hpp) feeds each pooled worker
// through one of these: the intake thread is the only producer, the
// worker the only consumer, so a bounded array with two monotonically
// increasing indices and acquire/release publication is the whole
// synchronization story — no CAS, no locks, no allocation after
// construction.
//
// Both sides additionally keep a *cached* copy of the other side's index
// (the manycore SPSC-queue idiom): the producer only re-reads the
// consumer's head when the ring looks full from its cache, and the
// consumer only re-reads the producer's tail when it looks empty, so in
// steady state each push/pop touches a single shared cacheline instead of
// two.  Indices are never wrapped (64-bit, monotone); slots are addressed
// modulo the power-of-two capacity.
//
// Values are exchanged with their slot, never overwritten: a push hands
// the producer back what the slot held, and a pop leaves the consumer's
// previous value in the slot.  Buffer-owning values (the service's job
// lines) therefore circulate between the two sides and, once every slot
// has carried one, a steady stream allocates nothing.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "armbar/util/cacheline.hpp"

namespace armbar::svc {

template <typename T>
class SpscRing {
 public:
  /// @param capacity slot count; rounded up to the next power of two
  ///   (minimum 2) so slot addressing is a mask, not a division.
  explicit SpscRing(std::size_t capacity) {
    if (capacity < 2) capacity = 2;
    std::size_t pow2 = 1;
    while (pow2 < capacity) pow2 <<= 1;
    slots_.resize(pow2);
    mask_ = pow2 - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Producer side.  Returns false when the ring is full (the value is
  /// untouched and can be retried).  On success @p value holds the
  /// slot's previous content.
  bool try_push(T&& value) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) return false;
    }
    using std::swap;
    swap(slots_[tail & mask_], value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side.  Returns false when the ring is empty.  On success
  /// @p out's previous content stays behind in the slot.
  bool try_pop(T& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    using std::swap;
    swap(out, slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer-side snapshot (approximate from the producer's view).
  bool empty() const noexcept {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  /// Producer line: tail index plus the producer's cache of head.
  alignas(util::kCachelineBytes) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t head_cache_ = 0;
  /// Consumer line: head index plus the consumer's cache of tail.
  alignas(util::kCachelineBytes) std::atomic<std::uint64_t> head_{0};
  std::uint64_t tail_cache_ = 0;
};

}  // namespace armbar::svc
