// Numerical utilities shared across the library: special functions,
// one-dimensional root finding, adaptive quadrature and compensated sums.
//
// Everything here is deterministic, header-declared and implemented in
// math.cpp. Functions validate their inputs with RAIDREL_REQUIRE.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <vector>

namespace raidrel::util {

/// Natural log of the gamma function. Thin wrapper over std::lgamma with the
/// domain restricted to x > 0 (sufficient for reliability math).
double log_gamma(double x);

/// Gamma function Γ(x) for x > 0.
double gamma_fn(double x);

/// Regularized lower incomplete gamma P(a, x) = γ(a,x)/Γ(a), a > 0, x >= 0.
/// Series expansion for x < a+1, continued fraction otherwise.
double gamma_p(double a, double x);

/// Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).
double gamma_q(double a, double x);

/// Complementary error function wrapper (kept here so callers do not
/// include <cmath> just for this).
double erfc_fn(double x);

/// Inverse of the standard normal CDF (Acklam's rational approximation,
/// refined with one Halley step; |relative error| < 1e-12 over (0,1)).
double normal_quantile(double p);

/// Options controlling the bracketing root finders.
struct RootOptions {
  double x_tol = 1e-12;      ///< absolute tolerance on the abscissa
  double f_tol = 0.0;        ///< stop when |f| <= f_tol (0 = ignore)
  int max_iter = 200;        ///< iteration budget
};

/// Result of a root solve.
struct RootResult {
  double root = std::numeric_limits<double>::quiet_NaN();
  double f_at_root = std::numeric_limits<double>::quiet_NaN();
  int iterations = 0;
  bool converged = false;
};

/// Brent's method on [lo, hi]; requires a sign change. Superlinear and
/// never worse than bisection.
RootResult brent(const std::function<double(double)>& f, double lo, double hi,
                 const RootOptions& opt = {});

/// Safeguarded Newton: falls back to bisection steps whenever the Newton
/// update leaves the current bracket. `f` returns (value, derivative).
RootResult newton_safe(
    const std::function<std::pair<double, double>(double)>& f, double lo,
    double hi, double x0, const RootOptions& opt = {});

/// Expand a bracket geometrically from [lo, hi] until f changes sign or the
/// budget is exhausted. Returns true on success (lo/hi updated in place).
bool expand_bracket(const std::function<double(double)>& f, double& lo,
                    double& hi, int max_doublings = 60);

/// Adaptive Simpson quadrature of f over [a, b] with absolute tolerance.
double integrate(const std::function<double(double)>& f, double a, double b,
                 double tol = 1e-10, int max_depth = 50);

/// Kahan–Babuška compensated accumulator, for long Monte Carlo sums.
class KahanSum {
 public:
  void add(double x) noexcept {
    double t = sum_ + x;
    if (std::abs(sum_) >= std::abs(x)) {
      comp_ += (sum_ - t) + x;
    } else {
      comp_ += (x - t) + sum_;
    }
    sum_ = t;
  }
  [[nodiscard]] double value() const noexcept { return sum_ + comp_; }
  void reset() noexcept { sum_ = comp_ = 0.0; }

 private:
  double sum_ = 0.0;
  double comp_ = 0.0;
};

/// Mean / variance accumulated with Welford's online algorithm.
class RunningStats {
 public:
  void add(double x) noexcept {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  /// Standard error of the mean (0 when n < 2).
  [[nodiscard]] double sem() const noexcept;

  /// Pool another accumulator into this one (Chan et al. parallel update).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// True when |a-b| <= atol + rtol*max(|a|,|b|).
bool approx_equal(double a, double b, double rtol = 1e-9, double atol = 0.0);

/// Poisson-binomial tail P(at least `at_least` of the n independent events
/// with probabilities p[0..n) occur), by dynamic programming over the
/// count distribution. `count_dist` is caller-provided scratch of at least
/// n + 1 doubles (it holds the exact count pmf on return — count_dist[k] =
/// P(exactly k events) — so probe consumers can reuse one allocation
/// across calls). The DP arithmetic is the simulation engines' m-overlap
/// probe census verbatim (see sim/group_simulator.cpp), so a value
/// computed here is bit-identical to theirs; equal probabilities reduce to
/// the binomial tail. The tail sums the pmf terms from `at_least` up
/// rather than taking 1 - P(fewer), so tails far below 1e-16 keep their
/// digits. at_least == 0 returns 1, at_least > n returns 0.
double poisson_binomial_tail(const double* p, std::size_t n,
                             unsigned at_least, double* count_dist);

}  // namespace raidrel::util
