#include "util/math.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace raidrel::util {

double log_gamma(double x) {
  RAIDREL_REQUIRE(x > 0.0, "log_gamma requires x > 0");
  return std::lgamma(x);
}

double gamma_fn(double x) {
  RAIDREL_REQUIRE(x > 0.0, "gamma_fn requires x > 0");
  return std::tgamma(x);
}

namespace {

// Series representation of P(a,x), valid/fast for x < a + 1.
double gamma_p_series(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int n = 0; n < 500; ++n) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::abs(del) < std::abs(sum) * 1e-16) break;
  }
  return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

// Continued-fraction representation of Q(a,x), valid/fast for x >= a + 1.
// Modified Lentz algorithm.
double gamma_q_cf(double a, double x) {
  constexpr double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < 1e-16) break;
  }
  return std::exp(-x + a * std::log(x) - std::lgamma(a)) * h;
}

}  // namespace

double gamma_p(double a, double x) {
  RAIDREL_REQUIRE(a > 0.0, "gamma_p requires a > 0");
  RAIDREL_REQUIRE(x >= 0.0, "gamma_p requires x >= 0");
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - gamma_q_cf(a, x);
}

double gamma_q(double a, double x) {
  RAIDREL_REQUIRE(a > 0.0, "gamma_q requires a > 0");
  RAIDREL_REQUIRE(x >= 0.0, "gamma_q requires x >= 0");
  if (x == 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - gamma_p_series(a, x);
  return gamma_q_cf(a, x);
}

double erfc_fn(double x) { return std::erfc(x); }

double normal_quantile(double p) {
  RAIDREL_REQUIRE(p > 0.0 && p < 1.0, "normal_quantile requires p in (0,1)");
  // Acklam's rational approximation.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log1p(-p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement step using the exact CDF via erfc.
  const double e = 0.5 * std::erfc(-x / std::sqrt(2.0)) - p;
  const double u = e * std::sqrt(2.0 * M_PI) * std::exp(x * x / 2.0);
  x = x - u / (1.0 + x * u / 2.0);
  return x;
}

RootResult brent(const std::function<double(double)>& f, double lo, double hi,
                 const RootOptions& opt) {
  RAIDREL_REQUIRE(lo < hi, "brent requires lo < hi");
  double a = lo, b = hi;
  double fa = f(a), fb = f(b);
  if (fa == 0.0) return {a, 0.0, 0, true};
  if (fb == 0.0) return {b, 0.0, 0, true};
  RAIDREL_REQUIRE(std::signbit(fa) != std::signbit(fb),
                  "brent requires a sign change on [lo, hi]");
  double c = a, fc = fa;
  double d = b - a, e = d;
  RootResult res;
  for (int iter = 0; iter < opt.max_iter; ++iter) {
    ++res.iterations;
    if (std::abs(fc) < std::abs(fb)) {
      a = b; b = c; c = a;
      fa = fb; fb = fc; fc = fa;
    }
    const double tol1 =
        2.0 * std::numeric_limits<double>::epsilon() * std::abs(b) +
        0.5 * opt.x_tol;
    const double xm = 0.5 * (c - b);
    if (std::abs(xm) <= tol1 || fb == 0.0 ||
        (opt.f_tol > 0.0 && std::abs(fb) <= opt.f_tol)) {
      res.root = b;
      res.f_at_root = fb;
      res.converged = true;
      return res;
    }
    if (std::abs(e) >= tol1 && std::abs(fa) > std::abs(fb)) {
      const double s = fb / fa;
      double p, q;
      if (a == c) {
        p = 2.0 * xm * s;
        q = 1.0 - s;
      } else {
        const double qq = fa / fc;
        const double r = fb / fc;
        p = s * (2.0 * xm * qq * (qq - r) - (b - a) * (r - 1.0));
        q = (qq - 1.0) * (r - 1.0) * (s - 1.0);
      }
      if (p > 0.0) q = -q;
      p = std::abs(p);
      const double min1 = 3.0 * xm * q - std::abs(tol1 * q);
      const double min2 = std::abs(e * q);
      if (2.0 * p < std::min(min1, min2)) {
        e = d;
        d = p / q;
      } else {
        d = xm;
        e = d;
      }
    } else {
      d = xm;
      e = d;
    }
    a = b;
    fa = fb;
    b += (std::abs(d) > tol1) ? d : (xm > 0 ? tol1 : -tol1);
    fb = f(b);
    if (std::signbit(fb) == std::signbit(fc)) {
      c = a;
      fc = fa;
      d = b - a;
      e = d;
    }
  }
  res.root = b;
  res.f_at_root = fb;
  res.converged = false;
  return res;
}

RootResult newton_safe(
    const std::function<std::pair<double, double>(double)>& f, double lo,
    double hi, double x0, const RootOptions& opt) {
  RAIDREL_REQUIRE(lo < hi, "newton_safe requires lo < hi");
  RAIDREL_REQUIRE(x0 >= lo && x0 <= hi, "newton_safe requires x0 in [lo,hi]");
  double x = x0;
  RootResult res;
  for (int i = 0; i < opt.max_iter; ++i) {
    ++res.iterations;
    auto [fx, dfx] = f(x);
    if (std::abs(fx) <= opt.f_tol ||
        (opt.f_tol == 0.0 && fx == 0.0)) {
      res.root = x;
      res.f_at_root = fx;
      res.converged = true;
      return res;
    }
    // Shrink the bracket around the root.
    if (fx > 0.0) {
      hi = std::min(hi, x);
    } else {
      lo = std::max(lo, x);
    }
    double x_new;
    if (dfx != 0.0) {
      x_new = x - fx / dfx;
      if (x_new <= lo || x_new >= hi || !std::isfinite(x_new)) {
        x_new = 0.5 * (lo + hi);  // Newton escaped the bracket: bisect.
      }
    } else {
      x_new = 0.5 * (lo + hi);
    }
    if (std::abs(x_new - x) < opt.x_tol) {
      auto [fr, dr] = f(x_new);
      (void)dr;
      res.root = x_new;
      res.f_at_root = fr;
      res.converged = true;
      return res;
    }
    x = x_new;
  }
  auto [fx, dfx] = f(x);
  (void)dfx;
  res.root = x;
  res.f_at_root = fx;
  res.converged = false;
  return res;
}

bool expand_bracket(const std::function<double(double)>& f, double& lo,
                    double& hi, int max_doublings) {
  RAIDREL_REQUIRE(lo < hi, "expand_bracket requires lo < hi");
  double flo = f(lo);
  double fhi = f(hi);
  for (int i = 0; i < max_doublings; ++i) {
    if (std::signbit(flo) != std::signbit(fhi) || flo == 0.0 || fhi == 0.0) {
      return true;
    }
    const double w = hi - lo;
    // Grow in the direction where |f| is smaller (closer to a crossing).
    if (std::abs(flo) < std::abs(fhi)) {
      lo -= w;
      flo = f(lo);
    } else {
      hi += w;
      fhi = f(hi);
    }
  }
  return std::signbit(flo) != std::signbit(fhi);
}

namespace {

double simpson_rule(double fa, double fm, double fb, double h) {
  return h / 6.0 * (fa + 4.0 * fm + fb);
}

double adaptive_simpson(const std::function<double(double)>& f, double a,
                        double b, double fa, double fm, double fb,
                        double whole, double tol, int depth) {
  const double m = 0.5 * (a + b);
  const double lm = 0.5 * (a + m);
  const double rm = 0.5 * (m + b);
  const double flm = f(lm);
  const double frm = f(rm);
  const double left = simpson_rule(fa, flm, fm, m - a);
  const double right = simpson_rule(fm, frm, fb, b - m);
  const double delta = left + right - whole;
  if (depth <= 0 || std::abs(delta) <= 15.0 * tol) {
    return left + right + delta / 15.0;
  }
  return adaptive_simpson(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1) +
         adaptive_simpson(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1);
}

}  // namespace

double integrate(const std::function<double(double)>& f, double a, double b,
                 double tol, int max_depth) {
  RAIDREL_REQUIRE(std::isfinite(a) && std::isfinite(b),
                  "integrate requires finite bounds");
  if (a == b) return 0.0;
  double sign = 1.0;
  if (a > b) {
    std::swap(a, b);
    sign = -1.0;
  }
  const double m = 0.5 * (a + b);
  const double fa = f(a);
  const double fm = f(m);
  const double fb = f(b);
  const double whole = simpson_rule(fa, fm, fb, b - a);
  return sign *
         adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, max_depth);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::sem() const noexcept {
  return n_ > 1 ? stddev() / std::sqrt(static_cast<double>(n_)) : 0.0;
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
}

bool approx_equal(double a, double b, double rtol, double atol) {
  return std::abs(a - b) <= atol + rtol * std::max(std::abs(a), std::abs(b));
}

double poisson_binomial_tail(const double* p, std::size_t n,
                             unsigned at_least, double* count_dist) {
  RAIDREL_REQUIRE(p != nullptr || n == 0, "need event probabilities");
  RAIDREL_REQUIRE(count_dist != nullptr, "need n + 1 doubles of scratch");
  if (at_least == 0) return 1.0;
  if (at_least > n) return 0.0;
  // The engines' probe DP verbatim: fold events in one at a time, updating
  // the count distribution in place from the top down. Keeping the exact
  // operation order is what makes this sharable with the bit-identity
  // contract between the scalar and batched engines.
  std::fill(count_dist, count_dist + n + 1, 0.0);
  count_dist[0] = 1.0;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = j + 1; k > 0; --k) {
      count_dist[k] = count_dist[k] * (1.0 - p[j]) + count_dist[k - 1] * p[j];
    }
    count_dist[0] *= 1.0 - p[j];
  }
  // Sum the upper tail itself, top terms first (the smallest when p is
  // small): every term is non-negative, so nothing cancels, and tails far
  // below the spacing of doubles near 1 (seven drives at p = 1e-6, three
  // needed: 3.5e-17) keep their digits.
  double tail = 0.0;
  for (std::size_t k = n + 1; k-- > at_least;) tail += count_dist[k];
  return std::min(tail, 1.0);
}

}  // namespace raidrel::util
