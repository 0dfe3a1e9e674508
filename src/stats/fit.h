// Parameter estimation for the lifetime laws.
//
// Two estimators for the Weibull, matching standard reliability practice:
//  * median-rank regression (the method behind the probability plots in the
//    paper's Figs. 1–2): least squares of y = ln(-ln(1-F)) on x = ln(t);
//  * maximum likelihood with right censoring (the appropriate method for
//    field populations where most drives have not failed — e.g. Fig. 2's
//    vintages with ~1k failures out of ~24k drives).
#pragma once

#include <optional>

#include "stats/empirical.h"
#include "stats/weibull.h"

namespace raidrel::stats {

/// Result of a Weibull fit.
struct WeibullFit {
  WeibullParams params;
  double log_likelihood = 0.0;  ///< at the optimum (MLE only)
  double r_squared = 0.0;       ///< plot linearity (rank regression only)
  std::size_t n_total = 0;      ///< observations used
  std::size_t n_failures = 0;   ///< uncensored events
  bool converged = false;
};

/// Median-rank regression (gamma fixed at 0) on right-censored data with
/// Johnson rank adjustment; complete data is the all-event case.
WeibullFit fit_weibull_rank_regression_censored(const LifeData& data);

/// Censored maximum-likelihood fit of the 2-parameter Weibull.
/// Uses the profile-likelihood equation in beta, solved by Brent, then the
/// closed-form eta. Requires at least 2 failures.
WeibullFit fit_weibull_mle(const LifeData& data);

/// Weibull log-likelihood of censored data (for model comparison / tests).
double weibull_log_likelihood(const LifeData& data, const WeibullParams& p);

}  // namespace raidrel::stats
