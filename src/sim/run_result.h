// Aggregated results of a Monte Carlo run: DDFs bucketed over mission time,
// normalized the way the paper plots them (per 1000 RAID groups), plus the
// per-interval rate of occurrence of failure (ROCOF, the paper's Fig. 8).
//
// On latent-credited trials (docs/MODEL.md §19) the counting and
// latent-then-op series hold the credited estimate: each trial's latent
// credits, not its realized (sampled) latent-then-op DDFs. A result built
// with the run's first-drive mean (the runner builds every result so)
// also folds the first-drive control variate: each marked first-drive
// failure subtracts its constant, and every query adds back trials times
// the expected term. Credits and constants enter rounded to a multiple of
// 2^-26, so every bucket stays an exact sum — independent of thread count
// and merge order — while it holds less than 2^27. latent_defects() and
// scrubs_completed() count simulated events only and therefore read 0 for
// credited runs.
#pragma once

#include <cstdint>
#include <vector>

#include "raid/group_config.h"
#include "sim/group_simulator.h"
#include "util/math.h"

namespace raidrel::sim {

/// Which DDF estimator a query should read.
enum class Estimator {
  kCounting,   ///< raw counted data-loss events (default)
  kDoubleOpProbe,  ///< conditional-expectation probe (rare-event regime)
};

class RunResult {
 public:
  /// `double_op_probe` says whether the folded trials record the §4 probe
  /// (RunOptions::double_op_probe); a result built without it answers no
  /// Estimator::kDoubleOpProbe query (see the accessors below).
  /// `first_drive_mean` is the run's sim::first_drive_mean on this
  /// geometry (one entry per bucket), or empty: a result without it folds
  /// no first-drive term, and TrialResult::first_drive_failures are
  /// ignored.
  RunResult(double mission_hours, double bucket_hours,
            bool double_op_probe = false,
            std::vector<double> first_drive_mean = {});

  /// Fold one trial into the aggregate. A trial carrying probe entries
  /// needs a result that records the probe.
  void add_trial(const TrialResult& trial);

  /// Merge another aggregate (same mission/bucket geometry, same probe
  /// flag, and the same first-drive mean when both carry one; a result
  /// without one adopts the other's for the trials folded under it).
  void merge(const RunResult& other);

  [[nodiscard]] std::size_t trials() const noexcept { return trials_; }
  [[nodiscard]] double mission_hours() const noexcept {
    return mission_hours_;
  }
  [[nodiscard]] double bucket_hours() const noexcept { return bucket_hours_; }
  /// Whether this result records the double-op probe.
  [[nodiscard]] bool double_op_probe() const noexcept { return probe_on_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return counting_.size();
  }
  /// Upper edge of bucket b (the last bucket ends at the mission).
  [[nodiscard]] double bucket_edge(std::size_t b) const;

  /// Cumulative DDFs per 1000 groups at each bucket edge. The series
  /// accessors return an empty vector for Estimator::kDoubleOpProbe on a
  /// result that does not record the probe; the scalar accessors
  /// (ddfs_per_1000_at, total_ddfs_per_1000) throw ModelError.
  [[nodiscard]] std::vector<double> cumulative_ddfs_per_1000(
      Estimator est = Estimator::kCounting) const;

  /// DDFs per 1000 groups occurring inside each bucket (the ROCOF series:
  /// failures per fixed interval).
  [[nodiscard]] std::vector<double> rocof_per_1000(
      Estimator est = Estimator::kCounting) const;

  /// Cumulative DDFs per 1000 groups at an arbitrary horizon (linear
  /// interpolation inside a bucket).
  [[nodiscard]] double ddfs_per_1000_at(
      double t, Estimator est = Estimator::kCounting) const;

  /// Total DDFs per 1000 groups over the whole mission.
  [[nodiscard]] double total_ddfs_per_1000(
      Estimator est = Estimator::kCounting) const;

  /// Standard error of total_ddfs_per_1000 (counting estimator, with the
  /// first-drive term in every per-trial value it covers).
  [[nodiscard]] double total_ddfs_per_1000_sem() const;

  /// Split of counted DDFs by kind, per 1000 groups over the mission.
  [[nodiscard]] double total_per_1000(raid::DdfKind kind) const;

  [[nodiscard]] std::uint64_t op_failures() const noexcept {
    return op_failures_;
  }
  /// Simulated defect arrivals; 0 for latent-credited runs.
  [[nodiscard]] std::uint64_t latent_defects() const noexcept {
    return latent_defects_;
  }
  /// Simulated scrub completions; 0 for latent-credited runs.
  [[nodiscard]] std::uint64_t scrubs_completed() const noexcept {
    return scrubs_completed_;
  }
  [[nodiscard]] std::uint64_t restores_completed() const noexcept {
    return restores_completed_;
  }
  /// Spares consumed by drives that had to wait for one (see
  /// TrialResult::spare_arrivals). 0 without a spare pool.
  [[nodiscard]] std::uint64_t spare_arrivals() const noexcept {
    return spare_arrivals_;
  }
  [[nodiscard]] const util::RunningStats& per_trial_ddfs() const noexcept {
    return per_trial_ddfs_;
  }

  /// Importance-sampling diagnostics. Every trial contributes
  /// w = exp(TrialResult::log_weight) to the (unnormalized, divide-by-n)
  /// weighted estimators; untilted runs have w == 1.0 exactly, so every
  /// accessor reduces bit-identically to the unweighted arithmetic.
  /// Effective sample size: (sum w)^2 / (sum w^2), exactly `trials()` for
  /// unit weights (n <= 2e6, so n^2 is exact in a double); 0 when empty.
  [[nodiscard]] double ess() const noexcept {
    return weight_sq_sum_ > 0.0 ? weight_sum_ * weight_sum_ / weight_sq_sum_
                                : 0.0;
  }
  [[nodiscard]] double weight_sum() const noexcept { return weight_sum_; }
  /// Largest single trial weight seen — the weight-degeneracy flag (a max
  /// weight near weight_sum means one path dominates the estimate).
  [[nodiscard]] double max_weight() const noexcept { return max_weight_; }

 private:
  /// A per-bucket series with the first-drive mean added back (the
  /// counting and latent-then-op series), or the probe series as is.
  [[nodiscard]] std::vector<double> series(const std::vector<double>& raw)
      const;
  [[nodiscard]] std::vector<double> series(Estimator est) const;
  /// Throw unless a kDoubleOpProbe query can be answered.
  void require_probe(Estimator est) const;

  double mission_hours_;
  double bucket_hours_;
  bool probe_on_;
  std::size_t trials_ = 0;
  std::vector<double> counting_;        ///< counted DDFs per bucket
  std::vector<double> probe_;           ///< probe expectation; empty if off
  std::vector<double> double_op_;       ///< counted double-op DDFs per bucket
  std::vector<double> latent_then_op_;  ///< counted LD-then-op per bucket
  std::vector<double> stripe_collision_;///< counted stripe collisions
  /// Expected first-drive term of one trial per bucket (empty: none), its
  /// sum, and the trials folded under it; queries add
  /// first_drive_trials_ * first_drive_mean_[b].
  std::vector<double> first_drive_mean_;
  double first_drive_total_ = 0.0;
  std::size_t first_drive_trials_ = 0;
  std::uint64_t op_failures_ = 0;
  std::uint64_t latent_defects_ = 0;
  std::uint64_t scrubs_completed_ = 0;
  std::uint64_t restores_completed_ = 0;
  std::uint64_t spare_arrivals_ = 0;
  util::RunningStats per_trial_ddfs_;
  double weight_sum_ = 0.0;
  double weight_sq_sum_ = 0.0;
  double max_weight_ = 0.0;
};

}  // namespace raidrel::sim
