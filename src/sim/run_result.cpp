#include "sim/run_result.h"

#include <cmath>

#include "util/error.h"
#include "util/grid.h"

namespace raidrel::sim {

RunResult::RunResult(double mission_hours, double bucket_hours,
                     bool double_op_probe,
                     std::vector<double> first_drive_mean)
    : mission_hours_(mission_hours),
      bucket_hours_(bucket_hours),
      probe_on_(double_op_probe),
      first_drive_mean_(std::move(first_drive_mean)) {
  RAIDREL_REQUIRE(mission_hours > 0.0, "mission must be positive");
  RAIDREL_REQUIRE(bucket_hours > 0.0 && bucket_hours <= mission_hours,
                  "bucket width must be in (0, mission]");
  const std::size_t n = util::bucket_count(mission_hours, bucket_hours);
  RAIDREL_REQUIRE(first_drive_mean_.empty() || first_drive_mean_.size() == n,
                  "first-drive mean needs one entry per bucket");
  counting_.assign(n, 0.0);
  if (probe_on_) probe_.assign(n, 0.0);
  double_op_.assign(n, 0.0);
  latent_then_op_.assign(n, 0.0);
  stripe_collision_.assign(n, 0.0);
  for (double m : first_drive_mean_) first_drive_total_ += m;
}

void RunResult::add_trial(const TrialResult& trial) {
  ++trials_;
  // Unnormalized importance-sampling estimator: every event series
  // accumulates the trial's likelihood-ratio weight instead of 1, and the
  // per-1000 normalizers keep dividing by the trial count. Untilted trials
  // carry log_weight == 0.0, so w == 1.0 exactly — taken without the exp —
  // and all the arithmetic below is bit-identical to the unweighted form
  // (x * 1.0 == x, += 1.0 matches the old constant).
  const double w = trial.log_weight == 0.0 ? 1.0 : std::exp(trial.log_weight);
  std::size_t counted = 0;
  for (const auto& ddf : trial.ddfs) {
    // A credited trial's latent-then-op DDFs are Bernoulli draws of its
    // credits below; the estimate takes the credits instead.
    if (trial.latent_credited && ddf.kind == raid::DdfKind::kLatentThenOp) {
      continue;
    }
    ++counted;
    const std::size_t b =
        util::bucket_index(ddf.time, mission_hours_, bucket_hours_);
    counting_[b] += w;
    switch (ddf.kind) {
      case raid::DdfKind::kDoubleOperational:
        double_op_[b] += w;
        break;
      case raid::DdfKind::kLatentThenOp:
        latent_then_op_[b] += w;
        break;
      case raid::DdfKind::kLatentStripeCollision:
        stripe_collision_[b] += w;
        break;
    }
  }
  RAIDREL_REQUIRE(probe_on_ || trial.double_op_probe.empty(),
                  "trial carries double-op probe entries but the result "
                  "was built without RunOptions::double_op_probe");
  for (const auto& [t, p] : trial.double_op_probe) {
    probe_[util::bucket_index(t, mission_hours_, bucket_hours_)] += w * p;
  }
  double credited = 0.0;
  for (const auto& [t, p] : trial.latent_credit) {
    const double c = w * quantize_credit(p);
    const std::size_t b = util::bucket_index(t, mission_hours_, bucket_hours_);
    counting_[b] += c;
    latent_then_op_[b] += c;
    credited += c;
  }
  // First-drive control variate: subtract each marked failure's constant
  // (already a multiple of 2^-26, see first_drive_constants) here; the
  // queries add back first_drive_trials_ times its expectation (series()).
  // Credited trials are never tilted, so no weight applies.
  double first_drive_term = 0.0;
  if (!first_drive_mean_.empty()) {
    ++first_drive_trials_;
    first_drive_term = first_drive_total_;
    for (const auto& [t, c] : trial.first_drive_failures) {
      const std::size_t b =
          util::bucket_index(t, mission_hours_, bucket_hours_);
      counting_[b] -= c;
      latent_then_op_[b] -= c;
      first_drive_term -= c;
    }
  }
  // The raw event counters stay unweighted: they are workload diagnostics
  // (how much simulation happened), not estimators of the nominal law.
  op_failures_ += trial.op_failures;
  latent_defects_ += trial.latent_defects;
  scrubs_completed_ += trial.scrubs_completed;
  restores_completed_ += trial.restores_completed;
  spare_arrivals_ += trial.spare_arrivals;
  const double estimate =
      trial.latent_credited
          ? w * static_cast<double>(counted) + credited
          : w * static_cast<double>(trial.ddfs.size());
  per_trial_ddfs_.add(first_drive_mean_.empty()
                          ? estimate
                          : estimate + first_drive_term);
  weight_sum_ += w;
  weight_sq_sum_ += w * w;
  if (w > max_weight_) max_weight_ = w;
}

void RunResult::merge(const RunResult& other) {
  RAIDREL_REQUIRE(other.mission_hours_ == mission_hours_ &&
                      other.bucket_hours_ == bucket_hours_,
                  "cannot merge results with different geometry");
  RAIDREL_REQUIRE(other.probe_on_ == probe_on_,
                  "cannot merge results with and without the double-op "
                  "probe (RunOptions::double_op_probe)");
  if (!other.first_drive_mean_.empty()) {
    if (first_drive_mean_.empty()) {
      first_drive_mean_ = other.first_drive_mean_;
      first_drive_total_ = other.first_drive_total_;
    }
    RAIDREL_REQUIRE(first_drive_mean_ == other.first_drive_mean_,
                    "cannot merge results under different first-drive "
                    "means");
  }
  first_drive_trials_ += other.first_drive_trials_;
  trials_ += other.trials_;
  for (std::size_t i = 0; i < probe_.size(); ++i) probe_[i] += other.probe_[i];
  for (std::size_t i = 0; i < counting_.size(); ++i) {
    counting_[i] += other.counting_[i];
    double_op_[i] += other.double_op_[i];
    latent_then_op_[i] += other.latent_then_op_[i];
    stripe_collision_[i] += other.stripe_collision_[i];
  }
  op_failures_ += other.op_failures_;
  latent_defects_ += other.latent_defects_;
  scrubs_completed_ += other.scrubs_completed_;
  restores_completed_ += other.restores_completed_;
  spare_arrivals_ += other.spare_arrivals_;
  per_trial_ddfs_.merge(other.per_trial_ddfs_);
  weight_sum_ += other.weight_sum_;
  weight_sq_sum_ += other.weight_sq_sum_;
  if (other.max_weight_ > max_weight_) max_weight_ = other.max_weight_;
}

double RunResult::bucket_edge(std::size_t b) const {
  RAIDREL_REQUIRE(b < counting_.size(), "bucket index out of range");
  if (b + 1 == counting_.size()) return mission_hours_;
  return bucket_hours_ * static_cast<double>(b + 1);
}

std::vector<double> RunResult::series(const std::vector<double>& raw) const {
  std::vector<double> out = raw;
  if (first_drive_trials_ > 0) {
    const auto n = static_cast<double>(first_drive_trials_);
    for (std::size_t b = 0; b < out.size(); ++b) {
      out[b] += n * first_drive_mean_[b];
    }
  }
  return out;
}

std::vector<double> RunResult::series(Estimator est) const {
  return est == Estimator::kCounting ? series(counting_) : probe_;
}

void RunResult::require_probe(Estimator est) const {
  RAIDREL_REQUIRE(est == Estimator::kCounting || probe_on_,
                  "the double-op probe was not recorded: run with "
                  "RunOptions::double_op_probe = true");
}

std::vector<double> RunResult::cumulative_ddfs_per_1000(Estimator est) const {
  RAIDREL_REQUIRE(trials_ > 0, "no trials accumulated");
  const std::vector<double> s = series(est);
  std::vector<double> out(s.size());
  double acc = 0.0;
  const double scale = 1000.0 / static_cast<double>(trials_);
  for (std::size_t i = 0; i < s.size(); ++i) {
    acc += s[i];
    out[i] = acc * scale;
  }
  return out;
}

std::vector<double> RunResult::rocof_per_1000(Estimator est) const {
  RAIDREL_REQUIRE(trials_ > 0, "no trials accumulated");
  std::vector<double> out = series(est);
  const double scale = 1000.0 / static_cast<double>(trials_);
  for (double& v : out) v *= scale;
  return out;
}

double RunResult::ddfs_per_1000_at(double t, Estimator est) const {
  RAIDREL_REQUIRE(trials_ > 0, "no trials accumulated");
  RAIDREL_REQUIRE(t >= 0.0 && t <= mission_hours_, "t outside the mission");
  require_probe(est);
  if (t == 0.0) return 0.0;
  const auto cum = cumulative_ddfs_per_1000(est);
  const std::size_t b = util::bucket_index(
      std::min(t, mission_hours_ * (1.0 - 1e-12)), mission_hours_,
      bucket_hours_);
  const double lo_edge = bucket_hours_ * static_cast<double>(b);
  const double hi_edge = bucket_edge(b);
  const double lo_val = b == 0 ? 0.0 : cum[b - 1];
  const double hi_val = cum[b];
  const double frac = (t - lo_edge) / (hi_edge - lo_edge);
  return lo_val + frac * (hi_val - lo_val);
}

double RunResult::total_ddfs_per_1000(Estimator est) const {
  RAIDREL_REQUIRE(trials_ > 0, "no trials accumulated");
  require_probe(est);
  double acc = 0.0;
  for (double v : series(est)) acc += v;
  return acc * 1000.0 / static_cast<double>(trials_);
}

double RunResult::total_ddfs_per_1000_sem() const {
  RAIDREL_REQUIRE(trials_ > 0, "no trials accumulated");
  return per_trial_ddfs_.sem() * 1000.0;
}

double RunResult::total_per_1000(raid::DdfKind kind) const {
  RAIDREL_REQUIRE(trials_ > 0, "no trials accumulated");
  std::vector<double> s;
  switch (kind) {
    case raid::DdfKind::kDoubleOperational:
      s = double_op_;
      break;
    case raid::DdfKind::kLatentThenOp:
      s = series(latent_then_op_);
      break;
    case raid::DdfKind::kLatentStripeCollision:
      s = stripe_collision_;
      break;
  }
  double acc = 0.0;
  for (double v : s) acc += v;
  return acc * 1000.0 / static_cast<double>(trials_);
}

}  // namespace raidrel::sim
