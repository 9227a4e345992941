// Whole-token numeric parsing for command-line values. The token must be
// exactly one number in [lo, hi] and nothing else: no trailing characters
// ("12x"), no empty token, no sign an unsigned type cannot hold, no
// overflow, no NaN. std::from_chars, so no locale and no leading
// whitespace.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace grist {

template <typename T>
std::optional<T> parseNumber(std::string_view token, T lo, T hi) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  // Written as !(in range) so a NaN fails it.
  if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi)) {
    return std::nullopt;
  }
  return value;
}

} // namespace grist
