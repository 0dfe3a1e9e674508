#include "stats/empirical.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace raidrel::stats {

namespace {

WeibullPlotPoint make_point(double t, double f) {
  return WeibullPlotPoint{t, f, std::log(t), std::log(-std::log1p(-f))};
}

}  // namespace

std::vector<WeibullPlotPoint> weibull_plot_points_censored(LifeData data) {
  RAIDREL_REQUIRE(!data.empty(), "need at least one observation");
  std::sort(data.begin(), data.end(),
            [](const LifeObservation& a, const LifeObservation& b) {
              if (a.time != b.time) return a.time < b.time;
              // Failures sort before suspensions at equal times (standard
              // convention: the suspension is known to have survived the
              // failure time).
              return a.event && !b.event;
            });
  const auto n = static_cast<double>(data.size());
  std::vector<WeibullPlotPoint> pts;
  double prev_adjusted_rank = 0.0;
  std::size_t seen = 0;  // units already processed (failed or suspended)
  for (const auto& obs : data) {
    ++seen;
    if (!obs.event) continue;
    RAIDREL_REQUIRE(obs.time > 0.0, "failure times must be positive");
    // Johnson rank increment: (n + 1 - previous adjusted rank) /
    // (1 + number of units remaining beyond the previous item).
    const double remaining = n - static_cast<double>(seen - 1);
    const double increment = (n + 1.0 - prev_adjusted_rank) / (1.0 + remaining);
    const double adjusted = prev_adjusted_rank + increment;
    prev_adjusted_rank = adjusted;
    const double f = (adjusted - 0.3) / (n + 0.4);  // Bernard on adjusted rank
    pts.push_back(make_point(obs.time, f));
  }
  RAIDREL_REQUIRE(!pts.empty(), "all observations were censored");
  return pts;
}

}  // namespace raidrel::stats
