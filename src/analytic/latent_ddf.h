// Semi-analytic companion to the Monte Carlo model: expected DDFs under
// the paper's latent-defect semantics, from first-order renewal theory.
//
// Assumptions (all satisfied to first order by the paper's base case):
//  * per-drive operational failures are rare within the mission
//    (H_op(mission) << 1), so the failure intensity of a slot is the
//    drive hazard h_op(t) and replacements are a second-order correction;
//  * latent defects arrive at constant rate lambda_ld (the paper's
//    beta = 1) and are cleared after a scrub residence with mean E[S]
//    (the alternating renewal of §5); the probability a given drive is
//    defective at time t follows the two-state availability ODE
//       q'(t) = lambda_ld (1 - q) - q / E[S]
//    giving q(t) = q_ss (1 - exp(-(lambda_ld + 1/E[S]) t)) with
//    q_ss = lambda_ld E[S] / (1 + lambda_ld E[S]); without scrubbing
//    E[S] -> inf and q(t) = 1 - exp(-lambda_ld t);
//  * DDFs from pure operational overlap add the classical
//    N (N+1) lambda^2 E[R] term.
//
// The value of this module is (a) an instant estimate where the Monte
// Carlo needs millions of trials, and (b) an independent derivation the
// test suite holds the simulator against.
#pragma once

#include "stats/distribution.h"

namespace raidrel::analytic {

struct LatentDdfInputs {
  unsigned total_drives = 8;   ///< N + redundancy
  unsigned redundancy = 1;
  const stats::Distribution* ttop = nullptr;  ///< operational-failure law
  double latent_rate = 1.08e-4;       ///< defects per hour per drive
  double mean_scrub_residence = 156.0;///< E[TTScrub]; +inf = no scrubbing
  double mean_restore = 16.6;         ///< E[TTR], for the double-op term

  void validate() const;
};

/// P(at least k of n independent events each with probability q) — the
/// equal-probability (binomial) special case of the engines' m-overlap
/// Poisson-binomial census, summed over the upper tail's binomial terms
/// (no complement, so tails far below 1e-16 keep their digits). Exposed
/// so tests can hold it against util::poisson_binomial_tail with equal
/// per-event probabilities for arbitrary k (the m >= 3 regimes the
/// multi-overlap terms below rely on).
double at_least_k_of_n(double q, unsigned n, unsigned k);

/// Probability one drive carries an outstanding defect at time t.
double defective_probability(const LatentDdfInputs& in, double t);

/// Steady-state defective probability q_ss.
double defective_probability_steady_state(const LatentDdfInputs& in);

/// Instantaneous DDF intensity of one group at time t (per hour):
/// latent-then-op term + the constant-rate double-operational term.
double ddf_intensity(const LatentDdfInputs& in, double t);

/// Expected DDFs per `groups` groups over [0, horizon] (numeric integral
/// of the intensity).
double expected_latent_ddfs(const LatentDdfInputs& in, double horizon,
                            double groups);

}  // namespace raidrel::analytic
