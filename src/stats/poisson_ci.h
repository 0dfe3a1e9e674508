// Exact confidence interval for a Poisson mean: honest error bars on
// simulated DDF counts (e.g. the Table 3 first-year cells).
#pragma once

#include <cstdint>

namespace raidrel::stats {

struct RateCi {
  double lower = 0.0;
  double upper = 0.0;
  double level = 0.95;
};

/// Exact (Garwood) confidence interval for a Poisson mean given an
/// observed `count`, via the gamma/chi-square relation. Divide by the
/// exposure to get a rate CI.
RateCi poisson_mean_ci(std::uint64_t count, double level = 0.95);

}  // namespace raidrel::stats
