#include "spans.hpp"

#include <cstdio>

namespace perfbench {

void Spans::add(const std::string& name, std::int64_t t0_ns,
                std::int64_t dur_ns, std::uint64_t count) {
  if (enabled_) spans_.push_back({name, t0_ns, dur_ns, count});
}

std::int64_t Spans::total_ns(const std::string& name) const {
  std::int64_t sum = 0;
  for (const Span& s : spans_)
    if (s.name == name) sum += s.dur_ns;
  return sum;
}

std::uint64_t Spans::total_count(const std::string& name) const {
  std::uint64_t sum = 0;
  for (const Span& s : spans_)
    if (s.name == name) sum += s.count;
  return sum;
}

double Spans::ns_per_call(const std::string& name) const {
  const std::uint64_t n = total_count(name);
  return n == 0 ? 0.0
                : static_cast<double>(total_ns(name)) / static_cast<double>(n);
}

bool Spans::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().t0_ns;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"count\": %llu}}%s\n",
                 s.name.c_str(), static_cast<double>(s.t0_ns - origin) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3,
                 static_cast<unsigned long long>(s.count),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
