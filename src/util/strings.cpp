#include "util/strings.h"

#include <cmath>
#include <cstdio>

namespace raidrel::util {

std::string format_fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string format_sci(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*e", digits, v);
  return buf;
}

std::string format_general(double v, int digits) {
  if (v == 0.0) return "0";
  const double a = std::abs(v);
  if (a >= 1e-3 && a < 1e7) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
    return buf;
  }
  return format_sci(v, digits - 1);
}

std::string format_grouped(long long v) {
  const bool neg = v < 0;
  unsigned long long u = neg ? 0ULL - static_cast<unsigned long long>(v)
                             : static_cast<unsigned long long>(v);
  std::string digits = std::to_string(u);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3 + 1);
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (neg) out.push_back('-');
  return {out.rbegin(), out.rend()};
}

std::string pad_left(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return std::string(width - s.size(), ' ') + s;
}

std::string pad_right(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

}  // namespace raidrel::util
