#include "analytic/latent_curve.h"

#include <algorithm>
#include <cmath>

#include "stats/weibull.h"
#include "util/error.h"

namespace raidrel::analytic {

namespace {

// Upper bound on the nodes of one solve. The solve is O(n^2), so a scrub
// law that has not flattened within this many nodes short of the horizon
// is re-solved at a coarser step instead of growing the table.
constexpr std::size_t kMaxNodes = std::size_t{1} << 14;

// 4-point Gauss-Legendre on [0, 1].
constexpr double kGaussX[4] = {
    0.5 - 0.4305681557970263, 0.5 - 0.1699905217924281,
    0.5 + 0.1699905217924281, 0.5 + 0.4305681557970263};
constexpr double kGaussW[4] = {0.1739274225687269, 0.3260725774312731,
                               0.3260725774312731, 0.1739274225687269};

}  // namespace

double latent_curve_step(const stats::Distribution& scrub) {
  if (const auto* w = dynamic_cast<const stats::Weibull*>(&scrub)) {
    return w->scale() / 168.0;
  }
  return scrub.mean() / 168.0;
}

LatentCurve::LatentCurve(double latent_rate, const stats::Distribution* scrub,
                         double horizon, double step)
    : rate_(latent_rate) {
  RAIDREL_REQUIRE(latent_rate > 0.0 && std::isfinite(latent_rate),
                  "latent rate must be positive and finite");
  RAIDREL_REQUIRE(horizon > 0.0 && std::isfinite(horizon),
                  "curve horizon must be positive and finite");
  if (scrub == nullptr) return;  // closed form, no table
  const double mean = scrub->mean();
  RAIDREL_REQUIRE(mean >= 0.0 && std::isfinite(mean),
                  "scrub law needs a finite mean");
  q_ss_ = rate_ * mean / (1.0 + rate_ * mean);
  double h = horizon;
  if (mean == 0.0) {
    table_.assign(3, 0.0);  // scrubbed on arrival: never seen defective
  } else {
    h = step > 0.0 ? step : latent_curve_step(*scrub);
    // A second solve at the step that reaches the horizon in kMaxNodes
    // nodes always succeeds.
    if (!solve(*scrub, mean, h, horizon)) {
      h = std::max(2.0 * h, horizon / static_cast<double>(kMaxNodes - 1));
      solve(*scrub, mean, h, horizon);
    }
  }
  table_.shrink_to_fit();  // solve() reserved for the node cap
  step_ = h;
  inv_step_ = 1.0 / h;
  last_ = static_cast<double>(table_.size() - 1);
}

double LatentCurve::mean_until(double h) const noexcept {
  if (table_.empty()) {
    const double x = rate_ * h;
    return 1.0 + std::expm1(-x) / x;
  }
  // Whole panels [0, n h] by the trapezoid rule, summed into independent
  // partial sums (a single chain would cost a latency per node), then the
  // partial panel up to `end` and the flat tail past the table.
  const double end = std::min(h, last_ * step_);
  const auto n = std::min(static_cast<std::size_t>(end * inv_step_),
                          table_.size() - 2);
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t k = 1;
  for (; k + 4 <= n; k += 4) {
    for (std::size_t l = 0; l < 4; ++l) acc[l] += table_[k + l];
  }
  for (; k < n; ++k) acc[0] += table_[k];
  double area = n == 0 ? 0.0
                        : (0.5 * (table_[0] + table_[n]) + (acc[0] + acc[1]) +
                           (acc[2] + acc[3])) *
                              step_;
  const double rest = end - static_cast<double>(n) * step_;
  if (rest > 0.0) {
    const double a_end =
        table_[n] + (table_[n + 1] - table_[n]) * rest * inv_step_;
    area += 0.5 * (table_[n] + a_end) * rest;
  }
  area += table_.back() * (h - end);
  return area / h;
}

bool LatentCurve::solve(const stats::Distribution& scrub, double mean,
                        double h, double horizon) {
  const double nodes_to_horizon = std::ceil(horizon / h);
  // At least two panels, so a lookup always has three nodes.
  const auto max_n = static_cast<std::size_t>(std::max(
      2.0, std::min(static_cast<double>(kMaxNodes - 1), nodes_to_horizon)));
  const std::size_t window =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(mean / h)));

  // 1 - A is interpolated on each panel by the two "hats" that hold both
  // constants and exp(-lambda s) exactly: right(v) = (1 - e^{-lambda v}) /
  // (1 - e^{-lambda h}) at offset v from the panel's left node, left(v) =
  // 1 - right(v). The up phase's own decay is then represented without
  // error, and what remains is the O(h^2) error of the scrub transient.
  // Their values at the Gauss points, with u = h - v measured back from
  // the panel's right end (the argument of S below):
  double right_at[4];
  for (int g = 0; g < 4; ++g) {
    right_at[g] = std::expm1(-rate_ * h * (1.0 - kGaussX[g])) /
                  std::expm1(-rate_ * h);
  }
  // Panel weights for the panel j steps back from the evaluation time,
  // against its left (p) and right (q) node:
  //   p[j] = int_0^h S(j h + u) left(h - u) du,
  //   q[j] = int_0^h S(j h + u) right(h - u) du.
  std::vector<double> p;
  std::vector<double> q;
  std::vector<double> c;  // c[j] = p[j-1] + q[j]: an inner node's weight
  p.reserve(max_n + 1);
  q.reserve(max_n + 1);
  c.reserve(max_n + 1);
  double integral = 0.0;  // sum of p + q so far: int_0^{panels * h} S
  auto add_panel = [&] {
    const double j = static_cast<double>(p.size());
    double pj = 0.0;
    double qj = 0.0;
    for (int g = 0; g < 4; ++g) {
      const double s = scrub.survival((j + kGaussX[g]) * h);
      pj += kGaussW[g] * s * (1.0 - right_at[g]);
      qj += kGaussW[g] * s * right_at[g];
    }
    pj *= h;
    qj *= h;
    c.push_back(p.empty() ? 0.0 : p.back() + qj);
    p.push_back(pj);
    q.push_back(qj);
    integral += pj + qj;
  };

  // A_n (1 + lambda q0) = lambda [p[n-1] + sum_{k=1}^{n-1} U_k c[n-k] + q0]
  // with U = 1 - A and U_0 = 1; only the node at t_n itself is implicit.
  // c is stored back to front (crev[max_n - j] = c[j]) so the convolution
  // reads both operands forwards, into eight independent partial sums.
  // BM_LatentCurve's slowest corner (rate 4.32e-3/h, scrub eta 720 h, 2125
  // nodes) takes 1.4-1.5 ms per table this way against a 2 ms budget; the
  // plain loop sum += up[k] * c[n - k] took 2.2-2.5 ms, and the unroll
  // alone over c read backwards 1.7-2.0 ms (Xeon with AVX-512, -O3).
  std::vector<double> up;  // U_k
  up.reserve(max_n + 1);
  std::vector<double> crev(max_n + 1, 0.0);
  table_.clear();
  table_.reserve(max_n + 1);
  table_.push_back(0.0);
  up.push_back(1.0);
  add_panel();
  const double q0 = q[0];
  const double denom = 1.0 + rate_ * q0;
  std::size_t flat = 0;
  for (std::size_t n = 1; n <= max_n; ++n) {
    add_panel();  // q[n] for c[n]; p[n] is read from node n + 1 on
    crev[max_n - n] = c[n];
    // sum_{k=1}^{n-1} up[k] * crev[max_n - n + k]
    const double* u = up.data() + 1;
    const double* w = crev.data() + (max_n - n + 1);
    const std::size_t len = n - 1;
    double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    std::size_t k = 0;
    for (; k + 8 <= len; k += 8) {
      for (std::size_t l = 0; l < 8; ++l) acc[l] += u[k + l] * w[k + l];
    }
    for (; k < len; ++k) acc[k % 8] += u[k] * w[k];
    double sum = p[n - 1] + q0;
    for (const double x : acc) sum += x;
    const double a = rate_ * sum / denom;
    table_.push_back(a);
    up.push_back(1.0 - a);
    // Flat: within 1e-9 (relative) of the steady state the weights so far
    // imply, for one mean scrub residence of consecutive nodes.
    const double q_n = rate_ * integral / (1.0 + rate_ * integral);
    flat = std::fabs(a - q_n) <= 1e-9 * q_n ? flat + 1 : 0;
    if (flat >= window && n >= 2) return true;
  }
  return static_cast<double>(max_n) >= nodes_to_horizon;
}

}  // namespace raidrel::analytic
