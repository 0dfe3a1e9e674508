#include "sim/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/cpu_features.h"

#include "rng/rng.h"
#include "sim/batch_engine.h"
#include "sim/fleet_simulator.h"
#include "sim/group_simulator.h"
#include "sim/latent_credit.h"
#include "util/error.h"

namespace raidrel::sim {

namespace {

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_law(std::string& out, const stats::DistributionPtr& d) {
  out += d ? d->exact_key() : "-";
  out += ';';
}

// Canonical description of a group: every field that changes simulated
// behavior, in a fixed order, with doubles printed at full precision and
// laws by their exact parameter bits.
// Cosmetic differences (slot order aside) in how a config was built do
// not change the string, so equal digests really mean "the same model".
void append_group(std::string& out, const raid::GroupConfig& config) {
  out += "group{slots=";
  out += std::to_string(config.slots.size());
  out += ";redundancy=";
  out += std::to_string(config.redundancy);
  out += ";mission=";
  append_double(out, config.mission_hours);
  out += ";clear_defects=";
  out += config.clear_defects_on_ddf_restore ? '1' : '0';
  out += ";pool=";
  if (config.spare_pool) {
    out += std::to_string(config.spare_pool->capacity);
    out += '@';
    append_double(out, config.spare_pool->replenish_hours);
  } else {
    out += '-';
  }
  out += ";zones=";
  out += std::to_string(config.stripe_zones);
  out += ";clock=";
  out += config.latent_clock == raid::LatentClock::kRenewal ? "renewal"
                                                            : "drive-age";
  out += ";recon_defect=";
  append_double(out, config.reconstruction_defect_probability);
  out += ";rebuild=";
  out += raid::to_string(config.rebuild);
  out += ";laws=[";
  for (const auto& slot : config.slots) {
    append_law(out, slot.time_to_op_failure);
    append_law(out, slot.time_to_restore);
    append_law(out, slot.time_to_latent_defect);
    append_law(out, slot.time_to_scrub);
    out += '|';
  }
  out += "]}";
}

// Size of one atomic work claim. The old fixed constant (64) stranded
// workers at the tail of short convergence batches: with 2000 trials on 8
// threads, a worker that grabbed the last 64-trial chunk ran alone while
// the rest idled. Aim for several claims per worker so a slow worker sheds
// load, clamp so tiny runs still claim whole lanes and huge runs don't
// contend on the atomic, and round down to a lane-boundary multiple so a
// batched worker never splits a lane across claims.
std::size_t claim_chunk(std::size_t trials, unsigned threads,
                        std::size_t lane, std::size_t max_chunk) {
  const unsigned workers = std::max(1u, threads);
  const std::size_t per_thread = (trials + workers - 1) / workers;
  std::size_t chunk =
      std::clamp(per_thread / 4, lane, std::max(lane, max_chunk));
  return chunk / lane * lane;
}

double elapsed_seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

// Fan `worker` out over `threads` pool workers: the caller's pool when
// RunOptions::pool is set, otherwise one that lives for this call. The
// pool captures the first worker exception and rethrows it on this
// (coordinating) thread after every worker finished, so a throwing trial
// can never unwind into std::thread and std::terminate the process.
void fan_out(unsigned threads, ThreadPool* pool, fault::FaultInjector* fault,
             const std::function<void()>& worker) {
  if (threads == 1) {
    worker();  // no worker task: exceptions propagate to the caller as-is
    return;
  }
  ThreadPool local;  // workers start lazily: free when `pool` is set
  ThreadPool& workers = pool != nullptr ? *pool : local;
  workers.set_fault_injector(fault);
  workers.run(threads, worker);
}

// Fold one run_lane call's occupancy profile (reset per call) into the
// worker's counters; min/max merge with 0 meaning "nothing settled yet".
void accumulate_occupancy(obs::WorkerStats& ws,
                          const BatchGroupSimulator::LaneOccupancy& oc) {
  if (oc.rounds == 0) return;
  ws.lane_rounds += oc.rounds;
  ws.active_lane_rounds += oc.active_lane_rounds;
  ws.capacity_lane_rounds += oc.capacity_lane_rounds;
  for (int d = 0; d < 10; ++d) ws.occupancy_hist[d] += oc.occupancy_hist[d];
  if (oc.lanes_settled > 0) {
    ws.settle_rounds_min =
        ws.lanes_settled == 0
            ? oc.settle_rounds_min
            : std::min(ws.settle_rounds_min, oc.settle_rounds_min);
    ws.settle_rounds_max = std::max(ws.settle_rounds_max, oc.settle_rounds_max);
  }
  ws.lanes_settled += oc.lanes_settled;
  ws.settle_rounds_sum += oc.settle_rounds_sum;
}

// Fold one group-mission into a worker's result and, with telemetry, its
// counters.
void fold_trial(RunResult& local, obs::WorkerStats& ws,
                const TrialResult& trial, bool telemetry) {
  local.add_trial(trial);
  if (!telemetry) return;
  ++ws.trials;
  ws.ddfs += trial.ddfs.size();
  ws.op_failures += trial.op_failures;
  ws.latent_defects += trial.latent_defects;
  ws.scrubs_completed += trial.scrubs_completed;
  ws.restores_completed += trial.restores_completed;
  ws.spare_arrivals += trial.spare_arrivals;
}

// The runner every engine shares. Workers claim chunks of the trial range
// and hand them to their own engine `lane` trials at a time:
// make_engine() runs once per worker and returns a callable
// (streams, first_trial_index, n, local, ws) that simulates n <= lane
// trials and folds every resulting group-mission into `local` and `ws`.
// `max_chunk` caps a claim; `groups` is the number of group-missions one
// trial yields (the batch telemetry counts those). `credited` and
// `estimator_reason` are what the manifest records as the estimator;
// every result of the run carries `first_drive`, the run's first-drive
// mean (empty off the credited path).
template <typename MakeEngine>
RunResult run_workers(const RunOptions& options, std::uint64_t digest,
                      bool credited, std::string_view estimator_reason,
                      const std::vector<double>& first_drive, double mission,
                      std::size_t lane, std::size_t max_chunk,
                      std::size_t groups, const MakeEngine& make_engine) {
  unsigned threads = options.threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, options.trials));

  if (options.telemetry) {
    // The scalar engines (lane 1) use no lane backend and are always
    // exact; batched runs record the resolved ISA and the math tier so an
    // archived throughput number is attributable to the code path that
    // produced it.
    options.telemetry->configure(
        options.seed, digest, threads, lane,
        lane > 1 ? util::isa_name(lane_ops().isa) : "",
        lane > 1 ? math_tier_name(options.math_tier) : "");
    options.telemetry->set_estimator(
        credited ? kLatentCreditEstimator : kEventsEstimator,
        estimator_reason);
  }
  const auto batch_start = std::chrono::steady_clock::now();

  RunResult total(mission, options.bucket_hours, options.double_op_probe,
                  first_drive);
  const rng::StreamFactory streams(options.seed);
  std::mutex merge_mutex;
  // Claim trials in lane-aligned chunks from one shared cursor, keeping
  // the atomic out of the hot path while preserving per-trial seeding:
  // every trial's stream derives from its global index, so which worker
  // claims it cannot change its result (runner.h's determinism contract).
  // The cursor fills a cache line of its own, away from the state every
  // worker reads.
  const std::size_t chunk =
      claim_chunk(options.trials, threads, lane, max_chunk);
  struct alignas(64) ClaimCursor {
    std::atomic<std::size_t> next{0};
  } cursor;

  // Drain protocol: once the token reads cancelled, a worker stops
  // claiming and abandons the rest of its current claim — but everything
  // it already completed still merges below, so the caller gets an honest
  // partial result. Poll granularity is one engine call: one trial
  // (scalar/fleet) or one lane (batched) — coarse enough to stay off the
  // hot path, fine enough that cancel latency is bounded by one simulated
  // mission.
  auto cancel_requested = [&options]() noexcept {
    return options.cancel != nullptr &&
           options.cancel->poll_quiet() != util::CancelReason::kNone;
  };

  auto worker = [&] {
    // Innermost cancellation context for layers below that have no token
    // parameter (the fault injector's hang kind polls this).
    const util::CancelScope cancel_scope(options.cancel);
    const auto worker_start = std::chrono::steady_clock::now();
    obs::WorkerStats ws;
    RunResult local(mission, options.bucket_hours, options.double_op_probe,
                    first_drive);
    auto engine = make_engine();
    bool drained = false;
    while (!drained) {
      const std::size_t begin = cursor.next.fetch_add(chunk);
      if (begin >= options.trials) break;
      const std::size_t end = std::min(begin + chunk, options.trials);
      for (std::size_t lb = begin; lb < end; lb += lane) {
        if (cancel_requested()) {
          drained = true;
          break;
        }
        const std::size_t n = std::min(lane, end - lb);
        if (options.fault != nullptr) {
          for (std::size_t k = 0; k < n; ++k) {
            options.fault->check("runner_trial");
          }
        }
        engine(streams, options.first_trial_index + lb, n, local, ws);
      }
    }
    const std::lock_guard<std::mutex> lock(merge_mutex);
    total.merge(local);
    if (options.telemetry) {
      ws.wall_seconds = elapsed_seconds(worker_start);
      options.telemetry->add_worker(ws);
    }
  };

  fan_out(threads, options.pool, options.fault, worker);
  if (options.telemetry) {
    obs::BatchStats batch;
    batch.first_trial_index = options.first_trial_index;
    batch.trials = options.trials * groups;
    batch.wall_seconds = elapsed_seconds(batch_start);
    batch.trials_per_second =
        batch.wall_seconds > 0.0
            ? static_cast<double>(batch.trials) / batch.wall_seconds
            : 0.0;
    options.telemetry->add_batch(batch);
    if (options.tilt && options.tilt->engaged()) {
      // Convergence loops overwrite this with the merged totals after each
      // batch, so the manifest always carries the cumulative diagnostics.
      options.telemetry->set_importance_sampling(
          {options.tilt->op_theta, options.tilt->ld_theta, total.ess(),
           total.weight_sum(), total.max_weight()});
    }
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      options.telemetry->set_stop_reason(
          {util::to_string(options.cancel->reason()), options.cancel->polls(),
           options.cancel->seconds_since_cancel()});
    }
  }
  return total;
}

}  // namespace

std::uint64_t config_digest(const raid::GroupConfig& config) {
  std::string canon;
  canon.reserve(256);
  append_group(canon, config);
  return obs::fnv1a64(canon);
}

std::uint64_t config_digest(const FleetConfig& config) {
  std::string canon;
  canon.reserve(256 * config.groups.size());
  canon += "fleet{pool=";
  if (config.shared_pool) {
    canon += std::to_string(config.shared_pool->capacity);
    canon += '@';
    append_double(canon, config.shared_pool->replenish_hours);
  } else {
    canon += '-';
  }
  canon += ";groups=[";
  for (const auto& g : config.groups) append_group(canon, g);
  canon += "]}";
  return obs::fnv1a64(canon);
}

RunResult run_monte_carlo(const raid::GroupConfig& config,
                          const RunOptions& options) {
  RAIDREL_REQUIRE(options.trials > 0, "need at least one trial");
  config.validate();
  if (options.tilt) {
    // Fail before spawning workers: every engine would raise the same
    // error, but a construction throw inside fan_out is harder to read.
    for (const auto& slot : config.slots) {
      validate_tilt(*options.tilt,
                    SlotKernel::compile(slot, options.kernel_policy));
    }
  }
  const bool telemetry = options.telemetry != nullptr;
  // Only telemetry reads the digest; it costs a string build per call.
  const std::uint64_t digest = telemetry ? config_digest(config) : 0;
  // Latent-credit tables: taken from the caller's cache (or built) before
  // the fan-out, and shared read-only by every worker's engine.
  const char* exclusion = latent_credit_exclusion(config, options.tilt);
  const std::string_view reason = exclusion ? exclusion : "";
  const std::shared_ptr<const LatentCurves> curves =
      latent_curves_for(config, options.tilt, options.latent_curves);
  const std::vector<double> first_drive =
      curves ? first_drive_mean({&config, 1}, *curves, options.bucket_hours)
             : std::vector<double>();
  const std::size_t lane = std::max<std::size_t>(1, options.batch_width);
  if (lane == 1) {
    return run_workers(
        options, digest, exclusion == nullptr, reason, first_drive,
        config.mission_hours, 1, 1024, 1, [&] {
          return [&, simulator = GroupSimulator(config, options.kernel_policy,
                                                options.tilt, curves,
                                                options.double_op_probe),
                  trial = TrialResult()](const rng::StreamFactory& streams,
                                         std::uint64_t index, std::size_t,
                                         RunResult& local,
                                         obs::WorkerStats& ws) mutable {
            auto rs = streams.stream(index);
            simulator.run_trial(rs, trial);
            fold_trial(local, ws, trial, telemetry);
          };
        });
  }
  // Batched lockstep path: chunks are lane-aligned (claim_chunk), so a lane
  // never straddles a claim; partial lanes only appear at the run tail.
  // Lane results are folded in trial-index order, keeping even the
  // aggregation order identical to the scalar path per worker.
  return run_workers(
      options, digest, exclusion == nullptr, reason, first_drive,
      config.mission_hours, lane, 1024, 1, [&] {
        return [&, simulator = BatchGroupSimulator(config, lane,
                                                   options.kernel_policy,
                                                   options.tilt,
                                                   options.math_tier,
                                                   curves,
                                                   options.double_op_probe)](
                   const rng::StreamFactory& streams, std::uint64_t first,
                   std::size_t n, RunResult& local,
                   obs::WorkerStats& ws) mutable {
          simulator.run_lane(streams, first, n);
          if (telemetry) accumulate_occupancy(ws, simulator.occupancy());
          for (std::size_t k = 0; k < n; ++k) {
            fold_trial(local, ws, simulator.result(k), telemetry);
          }
        };
      });
}

RunResult run_fleet_monte_carlo(const FleetConfig& config,
                                const RunOptions& options) {
  RAIDREL_REQUIRE(options.trials > 0, "need at least one trial");
  RAIDREL_REQUIRE(!options.tilt || !options.tilt->engaged(),
                  "fleet runs do not support importance-sampling tilt");
  config.validate();
  const bool telemetry = options.telemetry != nullptr;
  const std::shared_ptr<const LatentCurves> curves =
      latent_curves_for(config.groups, options.latent_curves);
  const std::vector<double> first_drive =
      curves ? first_drive_mean(config.groups, *curves, options.bucket_hours)
             : std::vector<double>();
  // A fleet is credited when any of its groups is. The manifest names the
  // first group left on the event path, whose simulated latent defects and
  // scrubs are the only ones the counters then hold.
  std::string reason;
  for (std::size_t g = 0; g < config.groups.size(); ++g) {
    if (const char* why = latent_credit_exclusion(config.groups[g])) {
      reason = "group " + std::to_string(g) + ": " + why;
      break;
    }
  }
  // Fleet trials are heavyweight, so the claim cap stays small. Every trial
  // folds one result per group: RunResult and telemetry count
  // group-missions.
  return run_workers(
      options, telemetry ? config_digest(config) : 0, curves != nullptr,
      reason, first_drive, config.mission_hours(), 1, 8,
      config.groups.size(), [&] {
        return [&, simulator = FleetSimulator(config, options.kernel_policy,
                                              curves,
                                              options.double_op_probe),
                trial = FleetTrialResult()](const rng::StreamFactory& streams,
                                            std::uint64_t index, std::size_t,
                                            RunResult& local,
                                            obs::WorkerStats& ws) mutable {
          auto rs = streams.stream(index);
          simulator.run_trial(rs, trial);
          for (const TrialResult& group : trial.per_group) {
            fold_trial(local, ws, group, telemetry);
          }
        };
      });
}

}  // namespace raidrel::sim
