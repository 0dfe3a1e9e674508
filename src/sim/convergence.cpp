#include "sim/convergence.h"

#include <limits>

#include "sim/latent_credit.h"
#include "util/error.h"

namespace raidrel::sim {

const char* to_string(ConvergedRun::StopRule rule) noexcept {
  switch (rule) {
    case ConvergedRun::StopRule::kBudget:
      return "budget";
    case ConvergedRun::StopRule::kRelativeSem:
      return "relative-sem";
    case ConvergedRun::StopRule::kAbsoluteSem:
      return "absolute-sem";
    case ConvergedRun::StopRule::kEss:
      return "ess";
    case ConvergedRun::StopRule::kZeroDdf:
      return "zero-ddf";
    case ConvergedRun::StopRule::kCancelled:
      return "cancelled";
    case ConvergedRun::StopRule::kDeadline:
      return "deadline";
  }
  return "?";
}

ConvergedRun run_until_converged(const raid::GroupConfig& config,
                                 const ConvergenceOptions& options) {
  RAIDREL_REQUIRE(options.target_relative_sem > 0.0,
                  "target relative SEM must be positive");
  RAIDREL_REQUIRE(options.target_absolute_sem >= 0.0,
                  "target absolute SEM must be non-negative");
  RAIDREL_REQUIRE(options.zero_ddf_upper_bound >= 0.0,
                  "zero-DDF bound must be non-negative");
  RAIDREL_REQUIRE(options.target_ess >= 0.0,
                  "target ESS must be non-negative");
  RAIDREL_REQUIRE(options.batch_trials > 0, "batch size must be positive");
  RAIDREL_REQUIRE(options.min_trials <= options.max_trials,
                  "min_trials must not exceed max_trials");

  ConvergedRun out{RunResult(config.mission_hours, options.bucket_hours)};

  // Workers poll the token at trial granularity, so a cancel (or the
  // expiry of a deadline the token carries) stops the run mid-batch, not
  // at the next batch boundary.
  util::CancelToken* const cancel = options.cancel;

  // One persistent worker pool for every batch of the study: workers are
  // spawned on the first multi-threaded batch and then parked between
  // batches instead of being respawned per run_monte_carlo call.
  ThreadPool pool;
  // Likewise one set of latent-credit tables for every batch.
  LatentCurveCache own_curves;
  LatentCurveCache* curves =
      options.latent_curves ? options.latent_curves : &own_curves;
  std::uint64_t next_index = 0;
  while (out.result.trials() < options.max_trials) {
    const std::size_t remaining = options.max_trials - out.result.trials();
    const std::size_t batch = std::min(options.batch_trials, remaining);
    RunOptions run;
    run.trials = batch;
    run.seed = options.seed;
    run.threads = options.threads;
    run.bucket_hours = options.bucket_hours;
    run.first_trial_index = next_index;
    run.telemetry = options.telemetry;
    run.fault = options.fault;
    run.pool = &pool;
    run.latent_curves = curves;
    run.batch_width = options.batch_width;
    run.tilt = options.tilt;
    run.math_tier = options.math_tier;
    run.cancel = cancel;
    out.result.merge(run_monte_carlo(config, run));
    next_index += batch;
    ++out.batches;

    // A batch cancelled before its first trial completed can leave the
    // study with zero trials; the RunResult accessors refuse to fabricate
    // statistics for an empty sample, so guard them and report the honest
    // "no information" diagnostics (infinite relative SEM, zero ESS).
    const std::size_t trials = out.result.trials();
    const double mean = trials > 0 ? out.result.total_ddfs_per_1000() : 0.0;
    const double sem =
        trials > 0 ? out.result.total_ddfs_per_1000_sem() : 0.0;
    out.relative_sem = mean > 0.0
                           ? sem / mean
                           : std::numeric_limits<double>::infinity();
    out.absolute_sem = sem;
    out.ess = out.result.ess();
    if (options.telemetry) {
      options.telemetry->annotate_last_batch(out.relative_sem, sem);
    }
    // Cancellation trumps every stopping rule including the min-trials
    // floor: the study was ended from outside (or ran out of wall time),
    // and the partial batch above already merged, so finalize what we
    // have and report why.
    if (cancel != nullptr) {
      const util::CancelReason why = cancel->reason();
      if (why != util::CancelReason::kNone) {
        out.stop = why == util::CancelReason::kDeadline
                       ? ConvergedRun::StopRule::kDeadline
                       : ConvergedRun::StopRule::kCancelled;
        break;
      }
    }
    // Stop-rule precedence (documented at ConvergedRun::StopRule): the
    // min-trials floor is checked before ANY stopping rule, so a single
    // wide batch that overshoots every statistical target still cannot
    // stop the study below the floor. Then relative SEM, absolute SEM,
    // ESS, and last the zero-DDF rule of three.
    if (trials < options.min_trials) continue;
    if (out.relative_sem <= options.target_relative_sem) {
      out.converged = true;
      out.stop = ConvergedRun::StopRule::kRelativeSem;
      break;
    }
    if (options.target_absolute_sem > 0.0 &&
        sem <= options.target_absolute_sem) {
      out.converged = true;
      out.stop = ConvergedRun::StopRule::kAbsoluteSem;
      break;
    }
    if (options.target_ess > 0.0 && out.ess >= options.target_ess) {
      out.converged = true;
      out.stop = ConvergedRun::StopRule::kEss;
      break;
    }
    // Rule of three: after n effective trials without a single DDF, the
    // 95% upper confidence bound on the rate is ~3/n missions, i.e.
    // 3000/n DDFs per 1000 groups. Once that bound is tight enough, more
    // trials cannot change the answer "effectively zero" — stop instead
    // of spinning to the budget with relative_sem stuck at infinity.
    // The denominator is the effective sample size: identical to the raw
    // trial count for unweighted runs (ESS == n exactly), honest about
    // the reduced information content of a tilted run.
    if (options.zero_ddf_upper_bound > 0.0 && mean == 0.0 && out.ess > 0.0 &&
        3000.0 / out.ess <= options.zero_ddf_upper_bound) {
      out.converged = true;
      out.stop = ConvergedRun::StopRule::kZeroDdf;
      break;
    }
  }
  if (options.telemetry) {
    // The manifest's stop_reason records how the study actually ended;
    // cancelled/deadlined studies also carry the drain diagnostics
    // (cancellation-check count, request-to-drain latency).
    obs::StopStats stop;
    stop.stop_reason = to_string(out.stop);
    if (cancel != nullptr && cancel->cancelled()) {
      stop.cancel_polls = cancel->polls();
      stop.cancel_latency_seconds = cancel->seconds_since_cancel();
    }
    options.telemetry->set_stop_reason(stop);
  }
  return out;
}

}  // namespace raidrel::sim
