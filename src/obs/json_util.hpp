#pragma once
// Internal JSON emission helpers shared by the obs exporters
// (metrics.cpp, aggregate.cpp, perfetto.cpp).
//
// Two hardening rules every exporter must follow:
//  * number formatting is pinned to the classic "C" locale — a process
//    that set a comma-decimal global locale, or hands us a stream imbued
//    with one, must still produce parseable JSON.  Numbers go through
//    std::to_chars, which never consults a locale;
//  * non-finite doubles (NaN/Inf are legal IEEE but illegal JSON) are
//    emitted as "null" where the schema allows it, or clamped to 0 where
//    a number is required (Perfetto timestamps).

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <locale>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

namespace armbar::obs::detail {

/// An ostringstream whose numeric formatting ignores the global locale.
inline std::ostringstream json_stream() {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  return os;
}

/// Finite double in classic-locale formatting; NaN/Inf become "null".
/// std::to_chars(general, 6) is specified as printf "%.6g", which is
/// exactly what a default-precision classic-locale `os << v` renders, so
/// the bytes are the stream's without building a stream.
inline std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v,
                               std::chars_format::general, 6);
  return std::string(buf, r.ptr);
}

/// Like json_num, but clamps non-finite values to 0 for schema positions
/// that require a number (trace timestamps/durations).
inline std::string json_num_or_zero(double v) {
  return std::isfinite(v) ? json_num(v) : "0";
}

/// JSON string escaping covering quotes, backslashes, and every control
/// character below 0x20 (the full set RFC 8259 requires).
inline std::string escaped(const std::string& s) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += hex[(static_cast<unsigned char>(c) >> 4) & 0xf];
          out += hex[static_cast<unsigned char>(c) & 0xf];
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

/// Buffered JSON text writer.  Numbers are rendered with std::to_chars,
/// so no locale or format flag can touch the bytes.  Over an ostream, the
/// text reaches the stream only through ostream::write, in chunks of
/// kFlushBytes, so a document of any size is never held whole; call
/// flush() once the document is complete.  Default-constructed, the sink
/// collects into a string that take() hands over.
class JsonSink {
 public:
  static constexpr std::size_t kFlushBytes = 8192;

  explicit JsonSink(std::ostream& os) : os_(&os) {
    buf_.reserve(kFlushBytes + 256);
  }
  JsonSink() = default;
  JsonSink(const JsonSink&) = delete;
  JsonSink& operator=(const JsonSink&) = delete;

  JsonSink& operator<<(std::string_view s) {
    buf_.append(s);
    return spill();
  }
  JsonSink& operator<<(char c) {
    buf_.push_back(c);
    return spill();
  }
  template <std::integral Int>
  JsonSink& operator<<(Int v) {
    char tmp[24];
    const auto r = std::to_chars(tmp, tmp + sizeof tmp, v);
    buf_.append(tmp, r.ptr);
    return spill();
  }
  /// Doubles must go through json_num (JSON null for NaN/Inf).
  JsonSink& operator<<(double) = delete;

  /// Hand the buffered text to the stream (stream mode only).
  void flush() {
    if (os_ == nullptr) return;
    os_->write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }

  /// The collected text (string mode).
  std::string take() { return std::move(buf_); }

 private:
  JsonSink& spill() {
    if (os_ != nullptr && buf_.size() >= kFlushBytes) flush();
    return *this;
  }

  std::ostream* os_ = nullptr;
  std::string buf_;
};

}  // namespace armbar::obs::detail
