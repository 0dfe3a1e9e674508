// Adaptive Monte Carlo: keep adding trial batches until the DDF estimate
// is statistically tight enough (relative SEM target) or a budget is hit.
// This is what a practitioner wants from the paper's method — "simulate
// until the answer is trustworthy" — without guessing a trial count.
//
// Highly reliable configurations can produce *zero* DDFs; the relative
// SEM is then undefined (0/0), so the loop also carries an absolute-SEM
// target and a zero-event stopping rule (the rule of three: after n
// event-free trials the 95% upper bound on the rate is ~3/n, i.e.
// 3000/n DDFs per 1000 groups). Without those rules a zero-DDF config
// would burn the whole max_trials budget chasing an unreachable ratio.
#pragma once

#include "obs/run_telemetry.h"
#include "raid/group_config.h"
#include "sim/run_result.h"
#include "sim/runner.h"

namespace raidrel::sim {

struct ConvergenceOptions {
  double target_relative_sem = 0.02;  ///< stop when SEM/mean <= this
  /// Absolute stop: SEM of total DDFs per 1000 groups <= this (0 = off).
  /// Useful when the mean itself may be tiny or zero and a fixed absolute
  /// uncertainty is what the study needs.
  double target_absolute_sem = 0.0;
  /// Zero-event stop: with no DDFs observed after n trials, stop once the
  /// rule-of-three 95% upper bound 3000/n (DDFs per 1000 groups) falls to
  /// this value or below. The default stops a zero-DDF config after
  /// 60000 trials with the bound "fewer than 0.05 DDFs per 1000 groups".
  /// Set to 0 to disable and recover the old spin-to-budget behavior.
  double zero_ddf_upper_bound = 0.05;
  /// ESS stop: stop once the effective sample size (sum w)^2 / sum w^2 of
  /// the weighted estimator reaches this many trials (0 = off). The
  /// natural target for tilted (importance-sampled) runs, where raw trial
  /// counts overstate the information when weights degenerate; for
  /// untilted runs ESS equals the trial count exactly.
  double target_ess = 0.0;
  std::size_t batch_trials = 20000;   ///< trials added per round
  std::size_t max_trials = 2000000;   ///< hard budget
  std::size_t min_trials = 20000;     ///< never stop before this many
  std::uint64_t seed = 20070625;
  unsigned threads = 0;
  double bucket_hours = 730.0;
  /// Lockstep lane width forwarded to every batch's RunOptions (see
  /// sim/batch_engine.h). Purely a throughput knob: every width yields
  /// bit-identical results, so it is deliberately NOT part of the sweep
  /// engine's cell cache key.
  std::size_t batch_width = kDefaultBatchWidth;
  /// Optional telemetry sink, forwarded to every batch's RunOptions. Its
  /// batch list becomes the convergence trajectory: each entry is
  /// annotated with the relative/absolute SEM achieved after that batch
  /// was merged.
  obs::RunTelemetry* telemetry = nullptr;
  /// Optional fault injector, forwarded to every batch's RunOptions (and
  /// to the loop's persistent pool, arming the "pool_task" site). Site hit
  /// counters accumulate across batches, so "runner_trial:N" means the Nth
  /// trial of the whole converged study. Null — the default — is off.
  fault::FaultInjector* fault = nullptr;
  /// Renewal-table cache forwarded to every batch's RunOptions (see
  /// sim/runner.h). Null — the default — gives the call a cache of its
  /// own, so every batch shares one set of tables.
  LatentCurveCache* latent_curves = nullptr;
  /// Importance-sampling tilt, forwarded to every batch's RunOptions (see
  /// sim/runner.h and docs/MODEL.md §13). Disjoint batch stream ranges
  /// keep the merged weighted estimate equal to one big tilted run.
  std::optional<TiltSpec> tilt;
  /// Math tier forwarded to every batch's RunOptions (sim/lane_ops.h).
  /// Unlike batch_width, a non-default tier changes result bits, so the
  /// sweep engine folds it into the cell cache key.
  MathTier math_tier = MathTier::kExact;
  /// Cooperative cancellation (util/cancel.h), forwarded to every batch's
  /// RunOptions. A cancelled token ends the study as soon as the current
  /// batch drains: the partial batch still merges, and the loop returns
  /// what it has under StopRule kCancelled/kDeadline with honest SEM/ESS
  /// diagnostics for however many trials actually completed (possibly
  /// zero — see ConvergedRun::result). Null — the default — is off.
  /// A wall-clock bound on the study is a token carrying a deadline
  /// (util::CancelToken(deadline), or token.child(deadline) to keep an
  /// outer token's cancel too): expiry stops the study at trial
  /// granularity and reports StopRule kDeadline.
  util::CancelToken* cancel = nullptr;
};

struct ConvergedRun {
  /// Which rule ended the loop (kBudget = ran out of max_trials). Rules
  /// are evaluated in a fixed precedence order each round — min-trials
  /// floor first (no rule may stop below it, even when a wide batch
  /// overshoots every target in round one), then relative SEM, absolute
  /// SEM, ESS, and last the zero-DDF rule of three. kCancelled/kDeadline
  /// trump everything including the floor: they mean the study was ended
  /// from outside (signal, caller) or ran out of wall time, and the
  /// result carries whatever trials had completed when the drain finished
  /// (`converged` stays false; diagnostics are computed from the partial
  /// sample, or left infinite/zero when no trial completed at all).
  enum class StopRule {
    kBudget,
    kRelativeSem,
    kAbsoluteSem,
    kEss,
    kZeroDdf,
    kCancelled,
    kDeadline,
  };

  RunResult result;
  bool converged = false;          ///< some target reached within budget
  StopRule stop = StopRule::kBudget;
  double relative_sem = 0.0;       ///< achieved SEM/mean (inf if mean 0)
  double absolute_sem = 0.0;       ///< achieved SEM (DDFs per 1000)
  double ess = 0.0;                ///< achieved effective sample size
  std::size_t batches = 0;
};

const char* to_string(ConvergedRun::StopRule rule) noexcept;

/// Run batches of `config` until the total-DDF estimate meets a target.
/// Batches use disjoint per-trial stream indices, so the union is exactly
/// what a single big run with the same seed would produce.
ConvergedRun run_until_converged(const raid::GroupConfig& config,
                                 const ConvergenceOptions& options);

}  // namespace raidrel::sim
