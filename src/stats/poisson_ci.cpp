#include "stats/poisson_ci.h"

#include "stats/basic_distributions.h"
#include "util/error.h"

namespace raidrel::stats {

RateCi poisson_mean_ci(std::uint64_t count, double level) {
  RAIDREL_REQUIRE(level > 0.0 && level < 1.0, "level must be in (0,1)");
  const double alpha = (1.0 - level) / 2.0;
  RateCi ci;
  ci.level = level;
  // Garwood: lower = Gamma(count, 1).quantile(alpha),
  //          upper = Gamma(count + 1, 1).quantile(1 - alpha).
  ci.lower = count == 0
                 ? 0.0
                 : Gamma(static_cast<double>(count), 1.0).quantile(alpha);
  ci.upper = Gamma(static_cast<double>(count) + 1.0, 1.0)
                 .quantile(1.0 - alpha);
  return ci;
}

}  // namespace raidrel::stats
