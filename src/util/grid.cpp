#include "util/grid.h"

#include <cmath>

#include "util/error.h"

namespace raidrel::util {

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
