#pragma once
// A locale whose numeric formatting would corrupt JSON if it leaked into
// an exporter, shared by the locale-independence tests.

#include <locale>
#include <string>

namespace armbar::test_support {

/// Comma decimal point, dot thousands separator, 3-digit grouping.
struct CommaDecimalPunct : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

/// The classic locale with CommaDecimalPunct swapped in.
inline std::locale hostile_locale() {
  return std::locale(std::locale::classic(), new CommaDecimalPunct);
}

/// Swaps in the hostile locale as the global locale for a scope.
struct GlobalLocaleGuard {
  std::locale previous;
  GlobalLocaleGuard() : previous(std::locale::global(hostile_locale())) {}
  ~GlobalLocaleGuard() { std::locale::global(previous); }
};

}  // namespace armbar::test_support
