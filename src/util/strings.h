// Small string/number formatting helpers used by the report module and the
// experiment harnesses.
#pragma once

#include <string>

namespace raidrel::util {

/// Fixed-point formatting with `digits` decimals ("12.35").
std::string format_fixed(double v, int digits = 2);

/// Scientific formatting with `digits` significant decimals ("1.08e-04").
std::string format_sci(double v, int digits = 2);

/// Compact "general" formatting: fixed for mid-range magnitudes, scientific
/// otherwise. Good default for table cells.
std::string format_general(double v, int digits = 4);

/// Thousands-separated integer formatting ("461,386").
std::string format_grouped(long long v);

/// Left/right padding to a field width (spaces).
std::string pad_left(const std::string& s, std::size_t width);
std::string pad_right(const std::string& s, std::size_t width);

}  // namespace raidrel::util
