#pragma once
// Host-speed reference.  On the shared host this benchmark runs on, the
// whole machine moves between a fast state and one about 1.5x slower,
// for seconds to minutes at a time, as other tenants come and go.  Raw
// throughputs follow the host, not the program.  So every run also
// times a frozen reference — a small discrete-event loop owned by the
// benchmark, never by the program under test — spread over the run, and
// the end-to-end figures are scaled to a nominal host speed.

#include <cstdint>

namespace perfbench {

/// Reference events per second the figures are scaled to.
inline constexpr double kNominalReferenceRate = 20e6;

class HostSpeed {
 public:
  /// Time reference loops until they have taken @p share of
  /// @p measured_ns (the run's measured time so far).
  void keep_up(std::int64_t measured_ns, double share = 0.05);
  /// Reference events per host second over every loop so far.
  double rate() const;
  /// kNominalReferenceRate / rate(): multiply a throughput by it, divide
  /// a duration by it.
  double scale() const { return kNominalReferenceRate / rate(); }

 private:
  void probe();

  std::uint64_t events_ = 0;
  std::int64_t ns_ = 0;
};

}  // namespace perfbench
