#pragma once
// Span recorder for the traced run.  A span covers one call into a
// public armbar function, or a batch of identical calls (then `count`
// says how many), so per-call costs below the clock's resolution stay
// measurable.  Spans are kept in memory and written once, at exit, as a
// Chrome trace-event file that Perfetto opens.

#include <cstdint>
#include <string>
#include <vector>

#include "io.hpp"

namespace perfbench {

class Spans {
 public:
  /// A disabled recorder keeps nothing; time() still runs its callable.
  explicit Spans(bool enabled) : enabled_(enabled) {}

  /// Run @p fn as one span named @p name covering @p count calls.
  /// Returns the span's duration in nanoseconds.
  template <typename Fn>
  std::int64_t time(const std::string& name, std::uint64_t count, Fn&& fn) {
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t dur = now_ns() - t0;
    add(name, t0, dur, count);
    return dur;
  }

  void add(const std::string& name, std::int64_t t0_ns, std::int64_t dur_ns,
           std::uint64_t count);

  /// Summed duration (ns) and summed count of every span named @p name.
  std::int64_t total_ns(const std::string& name) const;
  std::uint64_t total_count(const std::string& name) const;
  /// total_ns / total_count (0 when no span has that name).
  double ns_per_call(const std::string& name) const;

  /// Write every span as Chrome trace-event JSON.  False on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t t0_ns;
    std::int64_t dur_ns;
    std::uint64_t count;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
