#pragma once
// Streaming I/O around the service: a generated job-line source and a
// hashing, counting result sink.  Neither holds the workload text or the
// result stream, so the process's peak RSS is the service's, not the
// harness's.

#include <cstdint>
#include <functional>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic host clock in nanoseconds.
std::int64_t now_ns();

/// FNV-1a over one line (without its '\n').
std::uint64_t line_hash(std::string_view line);

/// Order-sensitive fold of line hashes into a stream hash.
inline std::uint64_t fold(std::uint64_t h, std::uint64_t line) {
  return (h ^ line) * 0x100000001b3ull + 0x9e3779b97f4a7c15ull;
}
inline constexpr std::uint64_t kHashSeed = 0xcbf29ce484222325ull;

/// An input stream buffer that asks @p next for one line at a time.
/// With @p stamps set, the moment each line is handed out is appended
/// to it (job latency is measured from there).
class LineSource final : public std::streambuf {
 public:
  using Next = std::function<bool(std::string& line)>;
  explicit LineSource(Next next, std::vector<std::int64_t>* stamps = nullptr);

 protected:
  int_type underflow() override;

 private:
  Next next_;
  std::vector<std::int64_t>* stamps_;
  std::string buf_;
};

/// An output stream buffer that hashes and counts what the service
/// writes.  Lines opening with `{"job": ` are result lines; everything
/// after the first other line is the sweep summary.
class HashSink final : public std::streambuf {
 public:
  struct Probe {
    /// Arrival time of every result line (job latency).
    std::vector<std::int64_t>* stamps = nullptr;
    /// Result-line tails (the text after the job index), in order.
    std::vector<std::string>* tails = nullptr;
    /// Sample the heap in use every this many result lines (0 = never).
    std::uint64_t heap_every = 0;
  };

  explicit HashSink(Probe probe) : probe_(probe) {}

  std::uint64_t results() const noexcept { return results_; }
  std::uint64_t bytes() const noexcept { return bytes_; }
  /// Sum of the "events" fields of the result lines.
  std::uint64_t events() const noexcept { return events_; }
  std::uint64_t results_hash() const noexcept { return results_hash_; }
  std::uint64_t summary_hash() const noexcept { return summary_hash_; }
  /// Hash of the whole stream.
  std::uint64_t stream_hash() const noexcept {
    return fold(results_hash_, summary_hash_);
  }
  /// When the first result line arrived (0 = none yet).
  std::int64_t first_result_ns() const noexcept { return first_result_ns_; }
  /// Largest heap-in-use sample (Probe::heap_every), in bytes.
  std::uint64_t heap_peak() const noexcept { return heap_peak_; }

 protected:
  int_type overflow(int_type ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  void end_line();

  Probe probe_;
  std::string line_;
  bool in_summary_ = false;
  std::uint64_t results_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t results_hash_ = kHashSeed;
  std::uint64_t summary_hash_ = kHashSeed;
  std::int64_t first_result_ns_ = 0;
  std::uint64_t heap_peak_ = 0;
};

/// Bytes the allocator currently has handed out (all arenas).
std::uint64_t heap_in_use();

/// Result-line prefix the service writes before the tail of job @p seq.
std::string result_prefix(std::uint64_t seq);

}  // namespace perfbench
