#pragma once
// Adaptive spin-wait.
//
// All native barrier implementations spin on flags.  On a dedicated core a
// raw spin is optimal, but this library must also stay live when threads
// are oversubscribed (CI containers, laptops).  SpinWait spins with a cpu
// relax hint for a bounded number of polls and then starts yielding to the
// scheduler, so a barrier with P > hardware_concurrency threads still
// completes promptly.

#include <chrono>
#include <cstdint>
#include <thread>

#include "armbar/util/prng.hpp"

namespace armbar::util {

/// Issue a CPU pause/yield hint appropriate for a polling loop.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  // Fallback: compiler barrier only.
  asm volatile("" ::: "memory");
#endif
}

/// Bounded busy-wait that degrades to std::this_thread::yield().
class SpinWait {
 public:
  /// @param spin_limit number of cpu_relax() polls before yielding.
  explicit SpinWait(std::uint32_t spin_limit = kDefaultSpinLimit) noexcept
      : spin_limit_(spin_limit) {}

  /// One back-off step; call once per failed poll of the awaited flag.
  void step() noexcept {
    if (polls_ < spin_limit_) {
      ++polls_;
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }

  /// Restart the spin budget (e.g. after observing forward progress).
  void reset() noexcept { polls_ = 0; }

  std::uint32_t polls() const noexcept { return polls_; }

  static constexpr std::uint32_t kDefaultSpinLimit = 1024;

 private:
  std::uint32_t spin_limit_;
  std::uint32_t polls_ = 0;
};

/// Spin until @p pred returns true, with adaptive back-off.
template <typename Pred>
void spin_until(Pred&& pred, std::uint32_t spin_limit = SpinWait::kDefaultSpinLimit) {
  SpinWait w(spin_limit);
  while (!pred()) w.step();
}

/// Retry delay with exponential backoff and FULL jitter (AWS-style):
/// uniform in [0, min(cap, base * 2^(attempt-1))].  Full jitter
/// decorrelates retry storms — when many workers fail together their
/// retries spread over the whole window instead of re-colliding at the
/// deterministic backoff instants.  @p attempt is 1-based (the attempt
/// that just failed); @p rand01 is a uniform [0, 1) draw supplied by the
/// caller so the schedule can be seeded deterministically.
inline double backoff_full_jitter_ms(int attempt, double base_ms,
                                     double cap_ms, double rand01) noexcept {
  if (attempt < 1) attempt = 1;
  double window = base_ms;
  for (int i = 1; i < attempt && window < cap_ms; ++i) window *= 2.0;
  if (window > cap_ms) window = cap_ms;
  return window * rand01;
}

/// Transient-retry pacing of the sweep driver and the sweep service
/// (docs/SERVICE.md §retries): the first retry waits uniform [0, 1] ms,
/// doubling the window per attempt up to the cap.
inline constexpr double kRetryBaseMs = 1.0;
inline constexpr double kRetryCapMs = 50.0;

/// Delay before retry @p failed_attempt + 1 of job @p job: full-jitter
/// backoff with the draw seeded per (job, attempt), so the sleep schedule
/// is a pure function of the inputs.
inline double retry_delay_ms(std::uint64_t job, int failed_attempt) noexcept {
  Xoshiro256 rng(std::uint64_t{0x9e3779b97f4a7c15} ^
                 (job * std::uint64_t{0x100000001b3} +
                  static_cast<std::uint64_t>(failed_attempt)));
  return backoff_full_jitter_ms(failed_attempt, kRetryBaseMs, kRetryCapMs,
                                rng.uniform01());
}

/// Sleep retry_delay_ms(@p job, @p failed_attempt).  The sleep never
/// touches simulation state: results stay bit-identical however long a
/// retry waited.
inline void retry_pause(std::uint64_t job, int failed_attempt) {
  const double ms = retry_delay_ms(job, failed_attempt);
  if (ms > 0.0)
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<std::int64_t>(ms * 1000.0)));
}

}  // namespace armbar::util
