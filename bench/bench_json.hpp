// Locale-independent JSON number formatting for the bench emitters.
//
// fprintf("%f"/"%g") obeys LC_NUMERIC: under a decimal-comma locale (de_DE,
// fr_FR, ...) it prints "1,5", which is invalid JSON and silently corrupts
// every BENCH_*.json a localized CI runner produces. Benches therefore
// format numbers through json_double(), which normalizes the separator and
// maps non-finite values (no JSON representation) to null.
#pragma once

#include <clocale>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace ppat::bench {

/// `v` as a JSON number token. `precision` is the %.*g significant-digit
/// count; the default 17 round-trips any double exactly. NaN/inf become
/// "null" (JSON has no spelling for them).
inline std::string json_double(double v, int precision = 17) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  // Replace the active locale's decimal separator (possibly multi-byte)
  // with '.'. localeconv() never returns null; decimal_point is never empty.
  // Copied forward rather than edited with std::string::replace, on which
  // GCC 12 reports a false -Wrestrict overlap.
  const std::string_view dp = std::localeconv()->decimal_point;
  std::string s;
  for (std::string_view rest = buf; !rest.empty();) {
    if (rest.starts_with(dp)) {
      s += '.';
      rest.remove_prefix(dp.size());
    } else {
      s += rest.front();
      rest.remove_prefix(1);
    }
  }
  return s;
}

}  // namespace ppat::bench
