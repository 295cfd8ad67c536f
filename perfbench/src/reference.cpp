#include "reference.hpp"

#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "io.hpp"

namespace perfbench {

namespace {

/// The frozen reference loop: 64 agents taking 2000 steps each through a
/// binary-heap event queue, each step updating a word of its own state.
/// Do not change it: its rate is the yardstick every run is scaled by.
std::uint64_t reference_loop() {
  constexpr int kAgents = 64;
  constexpr int kSteps = 2000;
  constexpr std::uint64_t kSlots = 8;
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  std::vector<std::uint64_t> state(kAgents * kSlots, 1);
  std::vector<int> left(kAgents, kSteps);
  for (std::uint32_t a = 0; a < kAgents; ++a) queue.push({a, a});
  std::uint64_t events = 0;
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  while (!queue.empty()) {
    const auto [t, a] = queue.top();
    queue.pop();
    ++events;
    std::uint64_t& s = state[a * kSlots + h % kSlots];
    h = (h ^ s ^ t) * 0x100000001b3ull;
    s += h >> 33;
    if (--left[a] > 0) queue.push({t + 50 + h % 100, a});
  }
  return events;
}

}  // namespace

void HostSpeed::probe() {
  const std::int64_t t0 = now_ns();
  events_ += reference_loop();
  ns_ += now_ns() - t0;
}

void HostSpeed::keep_up(std::int64_t measured_ns, double share) {
  do probe();
  while (static_cast<double>(ns_) < share * static_cast<double>(measured_ns));
}

double HostSpeed::rate() const {
  return static_cast<double>(events_) / (static_cast<double>(ns_) / 1e9);
}

}  // namespace perfbench
