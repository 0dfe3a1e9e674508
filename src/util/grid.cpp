#include "util/grid.h"

#include <cmath>

#include "util/error.h"

namespace raidrel::util {

std::vector<double> linspace(double lo, double hi, std::size_t n) {
  RAIDREL_REQUIRE(n >= 2, "linspace needs at least two points");
  std::vector<double> v(n);
  const double step = (hi - lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = lo + step * static_cast<double>(i);
  }
  v.back() = hi;  // avoid accumulated rounding on the last point
  return v;
}

std::vector<double> logspace(double lo, double hi, std::size_t n) {
  RAIDREL_REQUIRE(lo > 0.0 && hi > 0.0, "logspace requires positive bounds");
  auto logs = linspace(std::log(lo), std::log(hi), n);
  for (auto& x : logs) x = std::exp(x);
  logs.back() = hi;
  return logs;
}

std::size_t bucket_count(double horizon, double width) {
  RAIDREL_REQUIRE(horizon > 0.0 && width > 0.0,
                  "bucket_count requires positive horizon and width");
  return static_cast<std::size_t>(std::ceil(horizon / width));
}

std::size_t bucket_index(double t, double horizon, double width) {
  RAIDREL_REQUIRE(t >= 0.0 && t <= horizon, "bucket_index: t out of range");
  const std::size_t n = bucket_count(horizon, width);
  auto idx = static_cast<std::size_t>(t / width);
  if (idx >= n) idx = n - 1;  // t == horizon (or rounding at the edge)
  return idx;
}

}  // namespace raidrel::util
