#include "analytic/markov.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/math.h"

namespace raidrel::analytic {

MarkovChain::MarkovChain(std::size_t n, std::vector<double> generator)
    : n_(n), q_(std::move(generator)) {
  RAIDREL_REQUIRE(n >= 2, "chain needs at least two states");
  RAIDREL_REQUIRE(q_.size() == n * n, "generator must be n*n");
  for (std::size_t i = 0; i < n_; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n_; ++j) {
      if (i != j) {
        RAIDREL_REQUIRE(q_[i * n_ + j] >= 0.0,
                        "off-diagonal rates must be >= 0");
        row += q_[i * n_ + j];
      }
    }
    RAIDREL_REQUIRE(util::approx_equal(q_[i * n_ + i], -row, 1e-9, 1e-12),
                    "diagonal must equal minus the row sum");
  }
}

bool MarkovChain::is_absorbing(std::size_t state) const {
  RAIDREL_REQUIRE(state < n_, "state out of range");
  for (std::size_t j = 0; j < n_; ++j) {
    if (j != state && q_[state * n_ + j] > 0.0) return false;
  }
  return true;
}

std::vector<double> MarkovChain::transient_distribution(std::size_t initial,
                                                        double t,
                                                        double tol) const {
  RAIDREL_REQUIRE(initial < n_, "state out of range");
  RAIDREL_REQUIRE(t >= 0.0, "time must be >= 0");
  std::vector<double> pi(n_, 0.0);
  pi[initial] = 1.0;
  if (t == 0.0) return pi;

  // Uniformization: P = I + Q/Lambda, pi(t) = sum_k Pois(k; Lambda t) v_k,
  // v_{k+1} = v_k P.
  double lambda = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    lambda = std::max(lambda, -q_[i * n_ + i]);
  }
  if (lambda == 0.0) return pi;  // every state absorbing
  lambda *= 1.02;  // keep P strictly substochastic off the diagonal
  const double lt = lambda * t;

  // Right truncation point: mode + 10 standard deviations + margin.
  const auto kmax = static_cast<std::size_t>(
      std::ceil(lt + 10.0 * std::sqrt(lt) + 30.0));

  std::vector<double> v = pi;
  std::vector<double> next(n_);
  std::vector<double> out(n_, 0.0);
  double accumulated = 0.0;
  for (std::size_t k = 0; k <= kmax; ++k) {
    // log Pois(k; lt) computed directly; stable for large lt.
    const double logw =
        static_cast<double>(k) * std::log(lt) - lt -
        util::log_gamma(static_cast<double>(k) + 1.0);
    const double w = std::exp(logw);
    if (w > 0.0) {
      for (std::size_t i = 0; i < n_; ++i) out[i] += w * v[i];
      accumulated += w;
      if (accumulated >= 1.0 - tol && static_cast<double>(k) > lt) break;
    }
    // v <- v P = v + (v Q)/lambda.
    for (std::size_t j = 0; j < n_; ++j) {
      double dot = 0.0;
      for (std::size_t i = 0; i < n_; ++i) {
        dot += v[i] * q_[i * n_ + j];
      }
      next[j] = v[j] + dot / lambda;
    }
    v.swap(next);
  }
  // Distribute any truncated mass proportionally (it is < tol).
  const double missing = 1.0 - accumulated;
  if (missing > 0.0) {
    for (std::size_t i = 0; i < n_; ++i) out[i] += missing * v[i];
  }
  return out;
}

double MarkovChain::absorption_probability(std::size_t initial,
                                           std::size_t target,
                                           double t) const {
  RAIDREL_REQUIRE(is_absorbing(target),
                  "absorption probability needs an absorbing target");
  return transient_distribution(initial, t)[target];
}

double MarkovChain::mean_time_to_absorption(std::size_t initial) const {
  RAIDREL_REQUIRE(initial < n_, "state out of range");
  // Transient states: non-absorbing. Solve (-Q_TT) tau = 1.
  std::vector<std::size_t> transient;
  std::vector<std::ptrdiff_t> index(n_, -1);
  for (std::size_t i = 0; i < n_; ++i) {
    if (!is_absorbing(i)) {
      index[i] = static_cast<std::ptrdiff_t>(transient.size());
      transient.push_back(i);
    }
  }
  RAIDREL_REQUIRE(index[initial] >= 0,
                  "initial state is absorbing: mean time is 0");
  const std::size_t m = transient.size();
  std::vector<double> a(m * m, 0.0);
  std::vector<double> b(m, 1.0);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < m; ++c) {
      a[r * m + c] = -q_[transient[r] * n_ + transient[c]];
    }
  }
  // Gaussian elimination with partial pivoting.
  for (std::size_t col = 0; col < m; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < m; ++r) {
      if (std::abs(a[r * m + col]) > std::abs(a[pivot * m + col])) pivot = r;
    }
    RAIDREL_REQUIRE(std::abs(a[pivot * m + col]) > 0.0,
                    "singular system: absorbing set unreachable");
    if (pivot != col) {
      for (std::size_t c = 0; c < m; ++c) {
        std::swap(a[pivot * m + c], a[col * m + c]);
      }
      std::swap(b[pivot], b[col]);
    }
    const double d = a[col * m + col];
    for (std::size_t r = col + 1; r < m; ++r) {
      const double factor = a[r * m + col] / d;
      if (factor == 0.0) continue;
      for (std::size_t c = col; c < m; ++c) {
        a[r * m + c] -= factor * a[col * m + c];
      }
      b[r] -= factor * b[col];
    }
  }
  std::vector<double> tau(m, 0.0);
  for (std::size_t r = m; r-- > 0;) {
    double acc = b[r];
    for (std::size_t c = r + 1; c < m; ++c) acc -= a[r * m + c] * tau[c];
    tau[r] = acc / a[r * m + r];
  }
  return tau[static_cast<std::size_t>(index[initial])];
}

MarkovChain raid5_chain(unsigned data_drives, double lambda, double mu) {
  RAIDREL_REQUIRE(data_drives >= 1, "need at least one data drive");
  RAIDREL_REQUIRE(lambda > 0.0 && mu > 0.0, "rates must be positive");
  const double n = static_cast<double>(data_drives);
  // States: 0 all good (N+1 drives), 1 one failed, 2 data loss (absorbing).
  std::vector<double> q(9, 0.0);
  q[0 * 3 + 1] = (n + 1.0) * lambda;
  q[0 * 3 + 0] = -(n + 1.0) * lambda;
  q[1 * 3 + 0] = mu;
  q[1 * 3 + 2] = n * lambda;
  q[1 * 3 + 1] = -(mu + n * lambda);
  return MarkovChain(3, std::move(q));
}

MarkovChain raid6_chain(unsigned data_drives, double lambda, double mu) {
  RAIDREL_REQUIRE(data_drives >= 1, "need at least one data drive");
  RAIDREL_REQUIRE(lambda > 0.0 && mu > 0.0, "rates must be positive");
  const double n = static_cast<double>(data_drives);
  // States: 0 all good (N+2 drives), 1 one failed, 2 two failed,
  // 3 data loss (absorbing). Repairs return one level at rate mu.
  std::vector<double> q(16, 0.0);
  q[0 * 4 + 1] = (n + 2.0) * lambda;
  q[0 * 4 + 0] = -(n + 2.0) * lambda;
  q[1 * 4 + 0] = mu;
  q[1 * 4 + 2] = (n + 1.0) * lambda;
  q[1 * 4 + 1] = -(mu + (n + 1.0) * lambda);
  q[2 * 4 + 1] = mu;
  q[2 * 4 + 3] = n * lambda;
  q[2 * 4 + 2] = -(mu + n * lambda);
  return MarkovChain(4, std::move(q));
}

double raid5_mttdl_closed_form(unsigned data_drives, double lambda,
                               double mu) {
  RAIDREL_REQUIRE(data_drives >= 1, "need at least one data drive");
  RAIDREL_REQUIRE(lambda > 0.0 && mu > 0.0, "rates must be positive");
  const double n = static_cast<double>(data_drives);
  return ((2.0 * n + 1.0) * lambda + mu) / (n * (n + 1.0) * lambda * lambda);
}

}  // namespace raidrel::analytic
