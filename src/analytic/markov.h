// Continuous-time Markov chain machinery for the "previous models" the
// paper reviews (§4.1): constant-rate state diagrams solved either in
// closed form or numerically. Used to cross-check MTTDL and to show that
// even an exact Markov treatment cannot reproduce the simulator once the
// rates stop being constant.
#pragma once

#include <cstddef>
#include <vector>

namespace raidrel::analytic {

/// Dense CTMC over states 0..n-1 with generator Q (row sums zero except in
/// absorbing rows, which are all-zero).
class MarkovChain {
 public:
  /// `generator` is row-major n*n; q[i][j] (i != j) is the i->j rate.
  MarkovChain(std::size_t n, std::vector<double> generator);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool is_absorbing(std::size_t state) const;

  /// State distribution after `t` hours from `initial`, by uniformization
  /// (numerically robust for stiff reliability chains).
  [[nodiscard]] std::vector<double> transient_distribution(
      std::size_t initial, double t, double tol = 1e-12) const;

  /// P(chain has hit `target` by time t | start at `initial`).
  /// For absorbing targets this is the data-loss probability curve.
  [[nodiscard]] double absorption_probability(std::size_t initial,
                                              std::size_t target,
                                              double t) const;

  /// Mean hitting time of the absorbing set from `initial` (Gaussian
  /// elimination on the transient block). Requires at least one absorbing
  /// state reachable from `initial`.
  [[nodiscard]] double mean_time_to_absorption(std::size_t initial) const;

 private:
  std::size_t n_;
  std::vector<double> q_;  ///< row-major generator
};

/// The classical RAID5 birth–death chain (states: 0 = all good, 1 = one
/// failed/rebuilding, 2 = data loss, absorbing) with N data drives, drive
/// rate lambda and repair rate mu — the model behind the paper's eq. 1.
MarkovChain raid5_chain(unsigned data_drives, double lambda, double mu);

/// RAID6 chain (states 0,1,2 transient, 3 = data loss).
MarkovChain raid6_chain(unsigned data_drives, double lambda, double mu);

/// Closed-form mean time to absorption of the RAID5 chain; equals the
/// paper's eq. 1 exactly (used as a cross-check in tests).
double raid5_mttdl_closed_form(unsigned data_drives, double lambda,
                               double mu);

}  // namespace raidrel::analytic
