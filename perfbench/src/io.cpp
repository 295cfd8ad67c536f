#include "io.hpp"

#include <malloc.h>

#include <algorithm>
#include <chrono>

namespace perfbench {

namespace {
constexpr std::string_view kResultOpen = "{\"job\": ";
constexpr std::string_view kEventsField = "\"events\": ";
}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t line_hash(std::string_view line) {
  std::uint64_t h = kHashSeed;
  for (const char c : line) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<std::uint64_t>(mi.uordblks + mi.hblkhd);
}

std::string result_prefix(std::uint64_t seq) {
  return std::string(kResultOpen) + std::to_string(seq);
}

LineSource::LineSource(Next next, std::vector<std::int64_t>* stamps)
    : next_(std::move(next)), stamps_(stamps) {}

LineSource::int_type LineSource::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  buf_.clear();
  if (!next_(buf_)) return traits_type::eof();
  buf_.push_back('\n');
  if (stamps_ != nullptr) stamps_->push_back(now_ns());
  setg(buf_.data(), buf_.data(), buf_.data() + buf_.size());
  return traits_type::to_int_type(*gptr());
}

HashSink::int_type HashSink::overflow(int_type ch) {
  if (traits_type::eq_int_type(ch, traits_type::eof()))
    return traits_type::not_eof(ch);
  const char c = traits_type::to_char_type(ch);
  xsputn(&c, 1);
  return ch;
}

std::streamsize HashSink::xsputn(const char* s, std::streamsize n) {
  bytes_ += static_cast<std::uint64_t>(n);
  const char* end = s + n;
  while (s < end) {
    const char* nl = s;
    while (nl < end && *nl != '\n') ++nl;
    line_.append(s, static_cast<std::size_t>(nl - s));
    if (nl == end) break;
    end_line();
    s = nl + 1;
  }
  return n;
}

void HashSink::end_line() {
  const std::string_view line(line_);
  if (!in_summary_ && line.substr(0, kResultOpen.size()) == kResultOpen) {
    if (results_ == 0) first_result_ns_ = now_ns();
    ++results_;
    results_hash_ = fold(results_hash_, line_hash(line));
    const auto at = line.rfind(kEventsField);
    if (at != std::string_view::npos) {
      std::uint64_t v = 0;
      for (std::size_t i = at + kEventsField.size();
           i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i)
        v = v * 10 + static_cast<std::uint64_t>(line[i] - '0');
      events_ += v;
    }
    if (probe_.stamps != nullptr) probe_.stamps->push_back(now_ns());
    if (probe_.tails != nullptr) {
      std::size_t i = kResultOpen.size();
      while (i < line.size() && line[i] >= '0' && line[i] <= '9') ++i;
      probe_.tails->emplace_back(line.substr(i));
    }
    if (probe_.heap_every != 0 && results_ % probe_.heap_every == 0)
      heap_peak_ = std::max(heap_peak_, heap_in_use());
  } else {
    // The summary is written after serve() has folded every retained
    // report, so its first line sees the heap at its fullest.
    if (!in_summary_ && probe_.heap_every != 0)
      heap_peak_ = std::max(heap_peak_, heap_in_use());
    in_summary_ = true;
    summary_hash_ = fold(summary_hash_, line_hash(line));
  }
  line_.clear();
}

}  // namespace perfbench
