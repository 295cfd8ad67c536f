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

/// Buffered JSON text writer over an ostream.  Numbers are rendered with
/// std::to_chars and the text reaches the stream only through
/// ostream::write, so neither the global locale nor the target stream's
/// locale or format flags can touch the bytes.  The buffer is handed to
/// the stream every kFlushBytes, so a document of any size is never held
/// whole; call flush() once the document is complete.
class JsonSink {
 public:
  static constexpr std::size_t kFlushBytes = 8192;

  explicit JsonSink(std::ostream& os) : os_(os) {
    buf_.reserve(kFlushBytes + 256);
  }
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

  void flush() {
    os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }

 private:
  JsonSink& spill() {
    if (buf_.size() >= kFlushBytes) flush();
    return *this;
  }

  std::ostream& os_;
  std::string buf_;
};

}  // namespace armbar::obs::detail
