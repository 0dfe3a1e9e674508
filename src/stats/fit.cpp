#include "stats/fit.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"
#include "util/math.h"

namespace raidrel::stats {

namespace {

/// Least squares of y on x; returns (slope, intercept, r^2).
struct LineFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
};

LineFit least_squares(const std::vector<WeibullPlotPoint>& pts) {
  RAIDREL_REQUIRE(pts.size() >= 2, "rank regression needs >= 2 failures");
  const auto n = static_cast<double>(pts.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (const auto& p : pts) {
    sx += p.x;
    sy += p.y;
    sxx += p.x * p.x;
    sxy += p.x * p.y;
    syy += p.y * p.y;
  }
  const double vxx = sxx - sx * sx / n;
  const double vxy = sxy - sx * sy / n;
  const double vyy = syy - sy * sy / n;
  RAIDREL_REQUIRE(vxx > 0.0, "degenerate abscissa in rank regression");
  LineFit f;
  f.slope = vxy / vxx;
  f.intercept = (sy - f.slope * sx) / n;
  f.r_squared = vyy > 0.0 ? (vxy * vxy) / (vxx * vyy) : 1.0;
  return f;
}

WeibullFit fit_from_plot(const std::vector<WeibullPlotPoint>& pts,
                         std::size_t n_total, std::size_t n_failures) {
  const LineFit line = least_squares(pts);
  WeibullFit fit;
  fit.params.beta = line.slope;
  fit.params.eta = std::exp(-line.intercept / line.slope);
  fit.params.gamma = 0.0;
  fit.r_squared = line.r_squared;
  fit.n_total = n_total;
  fit.n_failures = n_failures;
  fit.converged = fit.params.beta > 0.0 && std::isfinite(fit.params.eta);
  return fit;
}

}  // namespace

WeibullFit fit_weibull_rank_regression(const std::vector<double>& times) {
  const auto pts = weibull_plot_points(times);
  return fit_from_plot(pts, times.size(), times.size());
}

WeibullFit fit_weibull_rank_regression_censored(const LifeData& data) {
  const auto pts = weibull_plot_points_censored(data);
  std::size_t failures = 0;
  for (const auto& d : data) failures += d.event ? 1 : 0;
  return fit_from_plot(pts, data.size(), failures);
}

double weibull_log_likelihood(const LifeData& data, const WeibullParams& p) {
  const Weibull w(p);
  double ll = 0.0;
  for (const auto& obs : data) {
    if (obs.event) {
      const double f = w.pdf(obs.time);
      ll += f > 0.0 ? std::log(f) : -1e300;
    } else {
      ll -= w.cum_hazard(obs.time);  // log S(t)
    }
  }
  return ll;
}

namespace {

/// The censored 2-parameter Weibull profile-likelihood equation in beta:
///   g(beta) = sum_i t_i^beta ln t_i / sum_i t_i^beta
///             - 1/beta - (1/r) sum_{failures} ln t_j = 0
/// Sums over all observations in the first term, failures only in the last;
/// r = number of failures. Root is the MLE of beta; then
/// eta = (sum_i t_i^beta / r)^(1/beta).
struct ProfileData {
  std::vector<double> all_times;     // every observation
  std::vector<double> failure_logs;  // ln t over failures only
  double mean_failure_log = 0.0;
};

std::optional<ProfileData> build_profile(const LifeData& data) {
  ProfileData pd;
  double sum_fail_log = 0.0;
  for (const auto& obs : data) {
    const double t = obs.time;
    if (obs.event) {
      if (t <= 0.0) return std::nullopt;  // ln t must exist
      pd.failure_logs.push_back(std::log(t));
      sum_fail_log += pd.failure_logs.back();
      pd.all_times.push_back(t);
    } else if (t > 0.0) {
      pd.all_times.push_back(t);
    }
    // Censored observations at time 0 carry no information.
  }
  if (pd.failure_logs.size() < 2) return std::nullopt;
  pd.mean_failure_log =
      sum_fail_log / static_cast<double>(pd.failure_logs.size());
  return pd;
}

double profile_equation(const ProfileData& pd, double beta) {
  // Stabilize t^beta with the max-log trick to avoid overflow at large beta.
  double max_log = -std::numeric_limits<double>::infinity();
  for (double t : pd.all_times) max_log = std::max(max_log, std::log(t));
  double s0 = 0.0, s1 = 0.0;
  for (double t : pd.all_times) {
    const double lt = std::log(t);
    const double w = std::exp(beta * (lt - max_log));
    s0 += w;
    s1 += w * lt;
  }
  return s1 / s0 - 1.0 / beta - pd.mean_failure_log;
}

std::optional<std::pair<WeibullParams, double>> solve_mle(
    const LifeData& data) {
  auto pd = build_profile(data);
  if (!pd) return std::nullopt;
  auto g = [&](double beta) { return profile_equation(*pd, beta); };
  double lo = 1e-3, hi = 1.0;
  // g is increasing in beta; find a bracket.
  while (g(hi) < 0.0 && hi < 1e3) hi *= 2.0;
  if (g(lo) > 0.0 || g(hi) < 0.0) return std::nullopt;
  const auto root = util::brent(g, lo, hi, {.x_tol = 1e-10});
  if (!root.converged) return std::nullopt;
  const double beta = root.root;
  // eta = (sum t^beta / r)^(1/beta), same max-log stabilization.
  double max_log = -std::numeric_limits<double>::infinity();
  for (double t : pd->all_times) max_log = std::max(max_log, std::log(t));
  double s0 = 0.0;
  for (double t : pd->all_times) {
    s0 += std::exp(beta * (std::log(t) - max_log));
  }
  const double r = static_cast<double>(pd->failure_logs.size());
  const double eta =
      std::exp(max_log + std::log(s0 / r) / beta);
  WeibullParams p{0.0, eta, beta};
  return std::make_pair(p, weibull_log_likelihood(data, p));
}

}  // namespace

WeibullFit fit_weibull_mle(const LifeData& data) {
  RAIDREL_REQUIRE(!data.empty(), "MLE needs data");
  std::size_t failures = 0;
  for (const auto& d : data) failures += d.event ? 1 : 0;
  RAIDREL_REQUIRE(failures >= 2, "Weibull MLE needs at least 2 failures");
  WeibullFit fit;
  fit.n_total = data.size();
  fit.n_failures = failures;
  auto sol = solve_mle(data);
  if (!sol) {
    fit.converged = false;
    return fit;
  }
  fit.params = sol->first;
  fit.log_likelihood = sol->second;
  fit.converged = true;
  return fit;
}

}  // namespace raidrel::stats
