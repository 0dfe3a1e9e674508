#include "analytic/latent_ddf.h"

#include <cmath>

#include "util/error.h"
#include "util/math.h"

namespace raidrel::analytic {

void LatentDdfInputs::validate() const {
  RAIDREL_REQUIRE(ttop != nullptr, "need an operational-failure law");
  RAIDREL_REQUIRE(total_drives > redundancy,
                  "need more drives than redundancy");
  RAIDREL_REQUIRE(redundancy >= 1, "redundancy must be >= 1");
  RAIDREL_REQUIRE(latent_rate > 0.0, "latent rate must be positive");
  RAIDREL_REQUIRE(mean_scrub_residence > 0.0,
                  "scrub residence must be positive (use +inf for none)");
  RAIDREL_REQUIRE(mean_restore > 0.0, "mean restore must be positive");
}

double defective_probability_steady_state(const LatentDdfInputs& in) {
  in.validate();
  if (std::isinf(in.mean_scrub_residence)) return 1.0;
  const double le = in.latent_rate * in.mean_scrub_residence;
  return le / (1.0 + le);
}

double defective_probability(const LatentDdfInputs& in, double t) {
  in.validate();
  RAIDREL_REQUIRE(t >= 0.0, "time must be >= 0");
  if (std::isinf(in.mean_scrub_residence)) {
    return -std::expm1(-in.latent_rate * t);
  }
  const double rate = in.latent_rate + 1.0 / in.mean_scrub_residence;
  const double q_ss = defective_probability_steady_state(in);
  return q_ss * -std::expm1(-rate * t);
}

double at_least_k_of_n(double q, unsigned n, unsigned k) {
  if (k == 0) return 1.0;
  if (k > n) return 0.0;
  if (q <= 0.0) return 0.0;
  if (q >= 1.0) return 1.0;
  // Sum the upper tail's pmf terms directly (non-negative, so no
  // cancellation), walking the recurrence away from the end whose pmf
  // cannot underflow: j = 0, pmf (1-q)^n, for q <= 1/2; j = n, pmf q^n,
  // above.
  const double odds = q / (1.0 - q);
  double tail = 0.0;
  if (q <= 0.5) {
    double pmf = std::pow(1.0 - q, static_cast<double>(n));  // j = 0
    for (unsigned j = 0; j < n; ++j) {
      if (j >= k) tail += pmf;
      // pmf(j+1) = pmf(j) * (n-j)/(j+1) * q/(1-q).
      pmf *= static_cast<double>(n - j) / static_cast<double>(j + 1) * odds;
    }
    tail += pmf;  // j = n
  } else {
    double pmf = std::pow(q, static_cast<double>(n));  // j = n
    for (unsigned j = n; j > k; --j) {
      tail += pmf;
      // pmf(j-1) = pmf(j) * j/(n-j+1) * (1-q)/q.
      pmf *= static_cast<double>(j) / static_cast<double>(n - j + 1) / odds;
    }
    tail += pmf;  // j = k
  }
  return std::min(tail, 1.0);
}

double ddf_intensity(const LatentDdfInputs& in, double t) {
  in.validate();
  const double q = defective_probability(in, t);
  const unsigned others = in.total_drives - 1;
  // Latent-then-op: any of the drives fails while >= redundancy of the
  // others carry defects.
  const double h = in.ttop->hazard(t);
  const double latent_term = static_cast<double>(in.total_drives) * h *
                             at_least_k_of_n(q, others, in.redundancy);
  // Multi-operational overlap (redundancy extra failures inside a restore
  // window); first-order constant-rate expression generalizing the
  // paper's N(N+1) lambda^2 / mu: each extra overlapping failure
  // multiplies in (survivors * h * E[R]), matching the exponential-repair
  // CTMC's absorption flux N(N-1)...(N-m) h^(m+1) E[R]^m to first order
  // for any redundancy m (validated against simulation at m = 3 in
  // tests/latent_ddf_test.cpp).
  double op_term = static_cast<double>(in.total_drives) * h;
  for (unsigned k = 0; k < in.redundancy; ++k) {
    op_term *= static_cast<double>(others - k) * h * in.mean_restore;
  }
  return latent_term + op_term;
}

double expected_latent_ddfs(const LatentDdfInputs& in, double horizon,
                            double groups) {
  in.validate();
  RAIDREL_REQUIRE(horizon >= 0.0, "horizon must be >= 0");
  RAIDREL_REQUIRE(groups >= 0.0, "groups must be >= 0");
  if (horizon == 0.0) return 0.0;
  const double per_group = util::integrate(
      [&](double t) { return ddf_intensity(in, t); }, 0.0, horizon,
      1e-10 * horizon);
  return per_group * groups;
}

}  // namespace raidrel::analytic
