// Multi-threaded Monte Carlo driver.
//
// Every trial gets a private random stream derived purely from (master seed,
// trial index), so each trial's event history is bit-reproducible no matter
// how many worker threads run or how the scheduler interleaves them. (Only
// the floating-point *summation order* of aggregates can differ across
// thread counts — a few ulps, never a different event.)
#pragma once

#include <cstdint>
#include <optional>

#include "fault/fault_injection.h"
#include "obs/run_telemetry.h"
#include "raid/group_config.h"
#include "sim/lane_ops.h"
#include "sim/run_result.h"
#include "sim/slot_kernel.h"
#include "sim/thread_pool.h"
#include "util/cancel.h"

namespace raidrel::sim {

class LatentCurveCache;

/// Default lockstep lane width for group runs (see RunOptions::batch_width).
/// Chosen by measurement on the base-case mission (bench_perf_engine): wide
/// enough that the bulk log/pow refills pipeline, small enough that a
/// lane's SoA state stays in L1.
inline constexpr std::size_t kDefaultBatchWidth = 64;

struct RunOptions {
  std::size_t trials = 100000;   ///< simulated group-missions
  std::uint64_t seed = 20070625; ///< master seed (DSN'07 presentation week)
  unsigned threads = 0;          ///< 0 = hardware concurrency
  double bucket_hours = 730.0;   ///< aggregation bucket (~1 month)
  /// First per-trial stream index. Batched runs (see convergence.h) use
  /// disjoint index ranges so their union equals one big run.
  std::uint64_t first_trial_index = 0;

  /// Optional observability sink (src/obs/, owned by the caller; may be
  /// shared across batches): per-worker counters and per-batch throughput,
  /// serializable as a JSON run manifest. It affects no result or random
  /// draw — a run with the sink attached is bit-identical to one without.
  obs::RunTelemetry* telemetry = nullptr;

  /// Persistent worker pool (owned by the caller, see thread_pool.h). When
  /// set, multi-threaded runs execute on the pool's parked workers instead
  /// of starting a pool per call — the win for batched runs (convergence
  /// loops, benches). Null runs on a pool that lives for the call. Work
  /// split, telemetry, and results are identical either way.
  ThreadPool* pool = nullptr;

  /// Renewal tables of the latent-credit estimator (sim/latent_credit.h,
  /// owned by the caller). When set, an in-scope run takes its tables from
  /// this cache, so a sweep or a convergence loop builds each one once.
  /// Null builds them in a cache that lives for the call. A cached table
  /// is the same table, so results are identical either way.
  LatentCurveCache* latent_curves = nullptr;

  /// Compiled-kernel lowering policy (see slot_kernel.h). kVirtualOnly is
  /// the bit-identical reference path used by the equivalence tests.
  KernelPolicy kernel_policy = KernelPolicy::kLowered;

  /// Deterministic fault injection (see fault/fault_injection.h). When
  /// set, every trial passes through the "runner_trial" site and a pool
  /// run passes each worker task through "pool_task". Null — the default —
  /// skips the checks entirely; an injector with an empty plan only counts
  /// hits. Neither changes results or random draws.
  fault::FaultInjector* fault = nullptr;

  /// Lockstep lane width for the group engine (sim/batch_engine.h): each
  /// worker advances `batch_width` trials at a time with their lifetime
  /// refills bulk-sampled across the lane. 1 selects the scalar engine;
  /// every width produces bit-identical per-trial results (proven by
  /// tests/batch_equivalence_test.cpp), so this is purely a throughput
  /// knob. Fleet runs always use the scalar engine.
  std::size_t batch_width = kDefaultBatchWidth;

  /// Importance-sampling tilt (docs/MODEL.md §13). Absent — the default —
  /// or unit runs the plain engines. Engaged, it biases op failures inside
  /// exposure windows on the scalar core (batched lanes forward to it) and
  /// weights every trial by its exact likelihood ratio. Engaged tilt
  /// requires lowerable op laws, ld_theta must be 1, and fleet runs reject
  /// it.
  std::optional<TiltSpec> tilt = std::nullopt;

  /// Cooperative cancellation (util/cancel.h). When set, every worker
  /// installs the token as its thread's cancellation context and polls it
  /// at trial granularity (the scalar and fleet engines before each trial,
  /// the batched engine before each lane). A cancelled token makes the run
  /// *drain*: workers stop claiming work, finish nothing further, and the
  /// call returns the partial RunResult of every trial completed so far —
  /// it does not throw, so callers can finalize honest estimates from what
  /// they have. A run whose token is never cancelled is bit-identical to a
  /// run with no token at all (polling touches no random stream); only the
  /// *set* of completed trials is scheduler-dependent after a cancel, and
  /// every completed trial is still bit-exact per its index. May return a
  /// zero-trial result if cancelled before any trial completes. Null — the
  /// default — skips the polls entirely.
  util::CancelToken* cancel = nullptr;

  /// Math tier of the batched engine's bulk refills (sim/lane_ops.h and
  /// docs/MODEL.md §14). The default kExact keeps every result
  /// bit-identical to the scalar engine at any batch width or ISA; kFast
  /// routes the hot Weibull-quantile transforms through polynomial SIMD
  /// kernels — statistically equivalent and deterministic per seed, but
  /// not bit-comparable to kExact, so it is recorded in the run manifest
  /// and feeds the sweep cache key. Ignored when batch_width == 1 (the
  /// scalar engine is always exact); fleet runs are always scalar.
  MathTier math_tier = MathTier::kExact;

  /// Record the conditional-expectation probe of double-op DDFs
  /// (TrialResult::double_op_probe, docs/MODEL.md §4) and make the result
  /// answer Estimator::kDoubleOpProbe. Off — the default — skips the
  /// probe's per-failure hazard evaluations and Poisson-binomial census,
  /// which cost more than the rest of an op failure. The probe draws no
  /// random numbers, so every other output is bit-identical either way.
  bool double_op_probe = false;
};

/// Run `options.trials` missions of `config` and aggregate.
RunResult run_monte_carlo(const raid::GroupConfig& config,
                          const RunOptions& options);

/// Run `options.trials` missions of a whole fleet and aggregate all
/// groups' events into one RunResult. The result is normalized per 1000
/// *group*-missions (trials() == options.trials * fleet size), so numbers
/// stay directly comparable with single-group runs; shared-pool contention
/// shows up as the difference.
struct FleetConfig;
RunResult run_fleet_monte_carlo(const FleetConfig& config,
                                const RunOptions& options);

/// FNV-1a digest of a configuration's canonical description — geometry,
/// policies, and every slot's distribution parameters. Equal digests mean
/// the same model; the run manifest embeds the digest so archived results
/// can be tied to the exact configuration that produced them.
std::uint64_t config_digest(const raid::GroupConfig& config);
std::uint64_t config_digest(const FleetConfig& config);

}  // namespace raidrel::sim
