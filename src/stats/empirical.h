// Plotting positions for Weibull probability plots of field data,
// complete or right-censored (drives still running when the study ended —
// the "S=10433" suspensions in the paper's Fig. 2).
#pragma once

#include <cstddef>
#include <vector>

namespace raidrel::stats {

/// One observation of a unit's life: time on test plus whether the unit
/// failed at that time (event=true) or was removed/still running
/// (event=false, right-censored; "suspension" in reliability jargon).
struct LifeObservation {
  double time = 0.0;
  bool event = true;
};

using LifeData = std::vector<LifeObservation>;

/// Median-rank plotting position (Bernard's approximation):
/// F_i ~ (i - 0.3) / (n + 0.4) for the i-th order statistic (1-based).
double median_rank(std::size_t i, std::size_t n);

/// A point on a Weibull probability plot: x = ln(t), y = ln(-ln(1 - F)).
/// A dataset that follows a 2-parameter Weibull lies on a straight line with
/// slope beta and intercept -beta*ln(eta).
struct WeibullPlotPoint {
  double time;       ///< original failure time
  double f_estimate; ///< plotting-position CDF estimate
  double x;          ///< ln(time)
  double y;          ///< ln(-ln(1 - F))
};

/// Build Weibull plot points from complete (uncensored) failure times.
std::vector<WeibullPlotPoint> weibull_plot_points(std::vector<double> times);

/// Build Weibull plot points from censored data using the rank-adjustment
/// (Johnson) method: suspensions shift the adjusted ranks of later failures.
std::vector<WeibullPlotPoint> weibull_plot_points_censored(LifeData data);

}  // namespace raidrel::stats
