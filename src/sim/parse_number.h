// Checked number parsing for command-line flags and text inputs. Unlike
// atoi/atof/strtod without an end pointer, a value is accepted only when the
// whole string is one number: empty input, leading blanks, trailing
// characters, overflow and non-finite values are all rejected.

#ifndef AEGAEON_SIM_PARSE_NUMBER_H_
#define AEGAEON_SIM_PARSE_NUMBER_H_

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace aegaeon {

// Parses `text` into `*out`; leaves `*out` untouched and returns false when
// `text` is not exactly one finite value of type T.
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  static_assert(std::is_arithmetic_v<T>);
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) {
    return false;
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) {
      return false;
    }
  }
  *out = value;
  return true;
}

}  // namespace aegaeon

#endif  // AEGAEON_SIM_PARSE_NUMBER_H_
