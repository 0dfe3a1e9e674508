// Repairable-system point-process analysis: the statistical machinery for
// the paper's central claim that RAID-group failures are NOT a homogeneous
// Poisson process (its refs [2]–[6]: Thompson, Ascher, Crow, Nelson).
//
//  * fit_power_law — maximum-likelihood fit of the Crow–AMSAA NHPP with
//    intensity
//        rho(t) = (beta/eta) (t/eta)^(beta-1)
//    (same parameterization as the Weibull hazard; for a repairable system
//    this is the ROCOF, not a component hazard — the distinction the paper
//    hammers on) from event histories, so a fitted beta > 1 *quantifies*
//    the "increasing rate of occurrence of failure" the paper shows in
//    Fig. 8.
//  * Trend tests — the Laplace test and the Military Handbook (chi-square)
//    test of the HPP null hypothesis against monotone trends.
#pragma once

#include <cstddef>
#include <vector>

namespace raidrel::stats {

/// Event history of one system observed over [0, observation_end]
/// (time-truncated observation).
struct EventHistory {
  std::vector<double> times;
  double observation_end = 0.0;
};

/// Crow's MLE for time-truncated multi-system data:
///   beta = N / sum_ij ln(T_i / t_ij),  eta from N = sum_i (T_i/eta)^beta.
struct PowerLawFit {
  double eta = 0.0;
  double beta = 0.0;
  std::size_t events = 0;
  std::size_t systems = 0;
  bool converged = false;
};
PowerLawFit fit_power_law(const std::vector<EventHistory>& histories);

/// Laplace (centroid) trend test for time-truncated observation. The
/// statistic is ~N(0,1) under the HPP null; positive values indicate an
/// increasing ROCOF, negative a decreasing one.
struct TrendTest {
  double statistic = 0.0;
  double p_value = 0.0;  ///< two-sided
  std::size_t events = 0;
};
TrendTest laplace_trend_test(const std::vector<EventHistory>& histories);

/// Military Handbook test: 2 sum ln(T/t_ij) ~ chi^2(2N) under the HPP
/// null; small values indicate wear-out (increasing ROCOF).
struct MilHdbkTest {
  double statistic = 0.0;
  std::size_t dof = 0;              ///< 2 * pooled event count
  std::size_t events = 0;
  double p_value_increasing = 0.0;  ///< P(chi2 <= statistic): small => up
};
MilHdbkTest mil_hdbk_trend_test(const std::vector<EventHistory>& histories);

}  // namespace raidrel::stats
