#include "sim/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/cpu_features.h"

#include "rng/rng.h"
#include "sim/batch_engine.h"
#include "sim/fleet_simulator.h"
#include "sim/group_simulator.h"
#include "util/error.h"

namespace raidrel::sim {

namespace {

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_law(std::string& out, const stats::DistributionPtr& d) {
  out += d ? d->describe() : "-";
  out += ';';
}

// Canonical description of a group: every field that changes simulated
// behavior, in a fixed order, with doubles printed at full precision.
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
  // Appended only when non-default so every pre-existing digest (and the
  // caches keyed on them) keeps its exact value — the same convention as
  // the sweep cache's conditional tilt/math-tier segments.
  if (config.rebuild != raid::RebuildModel::kDedicatedSpare) {
    out += ";rebuild=";
    out += raid::to_string(config.rebuild);
  }
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

// NUMA-aware work claiming for the group runner. The trial range is cut
// into one contiguous, lane-aligned partition per scheduling node, each
// with its own claim cursor on a private cache line; a worker drains its
// home node's partition first and only then steals from other nodes in
// ring order. On a single-node machine the partition degenerates to one
// range with one cursor — exactly the old shared atomic. Trial streams
// derive from the *global* trial index either way, so which node a trial
// was claimed from can never change its result (runner.h's determinism
// contract).
class TrialClaims {
 public:
  TrialClaims(std::size_t trials, std::size_t lane, std::size_t chunk,
              std::size_t nodes)
      : chunk_(chunk) {
    const std::size_t n = std::max<std::size_t>(1, nodes);
    const std::size_t total_lanes = (trials + lane - 1) / lane;
    begin_.reserve(n);
    end_.reserve(n);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t lo = j * total_lanes / n * lane;
      const std::size_t hi =
          std::min((j + 1) * total_lanes / n * lane, trials);
      begin_.push_back(std::min(lo, trials));
      end_.push_back(std::max(hi, std::min(lo, trials)));
    }
    cursors_ = std::make_unique<Cursor[]>(n);
  }

  [[nodiscard]] std::size_t nodes() const noexcept { return begin_.size(); }

  /// Claim the next chunk, preferring `home`'s partition. Returns false
  /// when every partition is drained; otherwise [*out_begin, *out_end) is
  /// a non-empty global trial range.
  bool claim(std::size_t home, std::size_t* out_begin,
             std::size_t* out_end) noexcept {
    const std::size_t n = begin_.size();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t j = (home + k) % n;
      const std::size_t size = end_[j] - begin_[j];
      if (size == 0) continue;
      const std::size_t pos = cursors_[j].next.fetch_add(chunk_);
      if (pos >= size) continue;
      *out_begin = begin_[j] + pos;
      *out_end = std::min(*out_begin + chunk_, end_[j]);
      return true;
    }
    return false;
  }

 private:
  struct alignas(64) Cursor {
    std::atomic<std::size_t> next{0};
  };
  std::size_t chunk_;
  std::vector<std::size_t> begin_;
  std::vector<std::size_t> end_;
  std::unique_ptr<Cursor[]> cursors_;
};

// A worker's home node for claim routing: the pool's pinned assignment
// when running on a NUMA-pinned pool worker, otherwise (single-node
// pool, forced synthetic split) a round-robin ticket. Either
// way every node gets a roughly equal worker share.
std::size_t claim_home(std::size_t nodes,
                       std::atomic<std::size_t>& ticket) noexcept {
  if (nodes <= 1) return 0;
  const int pinned = ThreadPool::current_worker_node();
  if (pinned >= 0) return static_cast<std::size_t>(pinned) % nodes;
  return ticket.fetch_add(1) % nodes;
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

  unsigned threads = options.threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, options.trials));

  const std::size_t lane = std::max<std::size_t>(1, options.batch_width);
  if (options.telemetry) {
    // The scalar engine (lane 1) uses no lane backend and is always
    // exact; batched runs record the resolved ISA and the math tier so an
    // archived throughput number is attributable to the code path that
    // produced it.
    options.telemetry->configure(
        options.seed, config_digest(config), threads, lane,
        lane > 1 ? util::isa_name(lane_ops().isa) : "",
        lane > 1 ? math_tier_name(options.math_tier) : "");
  }
  const auto batch_start = std::chrono::steady_clock::now();

  RunResult total(config.mission_hours, options.bucket_hours);
  const rng::StreamFactory streams(options.seed);
  std::mutex merge_mutex;
  // Claim trials in chunks to keep the claim cursors out of the hot path
  // while preserving per-trial seeding (work split does not affect
  // results). Multi-threaded runs on a multi-node topology partition the
  // range per node so pinned pool workers touch node-local state first;
  // probing here (not in workers) surfaces a bad RAIDREL_FORCE_NUMA_NODES
  // before any thread spawns.
  const std::size_t chunk = claim_chunk(options.trials, threads, lane, 1024);
  // A lone worker with home node 0 drains the partitions in ascending
  // global order, so even single-threaded runs can partition: results and
  // accumulation order are identical to one shared cursor (and the
  // equivalence tests pin that down with the order-sensitive probe sum).
  const std::size_t claim_nodes = util::active_topology().node_count();
  TrialClaims claims(options.trials, lane, chunk, claim_nodes);
  std::atomic<std::size_t> home_ticket{0};

  // Fold one run_lane call's occupancy profile (reset per call) into the
  // worker's counters; min/max merge with 0 meaning "nothing settled yet".
  auto accumulate_occupancy = [](obs::WorkerStats& ws,
                                 const BatchGroupSimulator::LaneOccupancy&
                                     oc) {
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
  };

  auto accumulate = [&options](obs::WorkerStats& ws,
                               const TrialResult& trial) {
    if (!options.telemetry) return;
    ++ws.trials;
    ws.ddfs += trial.ddfs.size();
    ws.op_failures += trial.op_failures;
    ws.latent_defects += trial.latent_defects;
    ws.scrubs_completed += trial.scrubs_completed;
    ws.restores_completed += trial.restores_completed;
    ws.spare_arrivals += trial.spare_arrivals;
  };

  // Drain protocol: once the token reads cancelled, a worker stops
  // claiming and abandons the rest of its current claim — but everything
  // it already completed still merges below, so the caller gets an honest
  // partial result. Poll granularity is one trial (scalar/fleet) or one
  // lane (batched): coarse enough to stay off the hot path, fine enough
  // that cancel latency is bounded by one simulated mission.
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
    RunResult local(config.mission_hours, options.bucket_hours);
    bool drained = false;
    const std::size_t home = claim_home(claims.nodes(), home_ticket);
    if (lane == 1) {
      GroupSimulator simulator(config, options.kernel_policy, options.tilt);
      TrialResult trial;
      while (!drained) {
        std::size_t begin = 0;
        std::size_t end = 0;
        if (!claims.claim(home, &begin, &end)) break;
        for (std::size_t i = begin; i < end; ++i) {
          if (cancel_requested()) {
            drained = true;
            break;
          }
          const std::uint64_t index = options.first_trial_index + i;
          if (options.fault != nullptr) options.fault->check("runner_trial");
          auto rs = streams.stream(index);
          simulator.run_trial(
              rs, trial,
              options.trace ? options.trace->trial_slot(index) : nullptr);
          local.add_trial(trial);
          accumulate(ws, trial);
        }
      }
    } else {
      // Batched lockstep path: chunks are lane-aligned (claim_chunk), so a
      // lane never straddles a claim; partial lanes only appear at the run
      // tail. Lane results are folded in trial-index order, keeping even
      // the aggregation order identical to the scalar path per worker.
      BatchGroupSimulator simulator(config, lane, options.kernel_policy,
                                    options.tilt, options.math_tier);
      while (!drained) {
        std::size_t begin = 0;
        std::size_t end = 0;
        if (!claims.claim(home, &begin, &end)) break;
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
          simulator.run_lane(streams, options.first_trial_index + lb, n,
                             options.trace);
          if (options.telemetry) {
            accumulate_occupancy(ws, simulator.occupancy());
          }
          for (std::size_t k = 0; k < n; ++k) {
            const TrialResult& trial = simulator.result(k);
            local.add_trial(trial);
            accumulate(ws, trial);
          }
        }
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
    batch.trials = options.trials;
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

RunResult run_fleet_monte_carlo(const FleetConfig& config,
                                const RunOptions& options) {
  RAIDREL_REQUIRE(options.trials > 0, "need at least one trial");
  RAIDREL_REQUIRE(!options.tilt || !options.tilt->engaged(),
                  "fleet runs do not support importance-sampling tilt");
  config.validate();
  const double mission = config.mission_hours();

  unsigned threads = options.threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads =
      static_cast<unsigned>(std::min<std::size_t>(threads, options.trials));

  if (options.telemetry) {
    // The fleet engine is always scalar: batch_width records as 1.
    options.telemetry->configure(options.seed, config_digest(config),
                                 threads, 1);
  }
  const auto batch_start = std::chrono::steady_clock::now();

  RunResult total(mission, options.bucket_hours);
  const rng::StreamFactory streams(options.seed);
  std::atomic<std::size_t> next_trial{0};
  std::mutex merge_mutex;
  // Fleet trials are heavyweight, so the claim cap stays small.
  const std::size_t chunk = claim_chunk(options.trials, threads, 1, 8);

  auto cancel_requested = [&options]() noexcept {
    return options.cancel != nullptr &&
           options.cancel->poll_quiet() != util::CancelReason::kNone;
  };

  auto worker = [&] {
    const util::CancelScope cancel_scope(options.cancel);
    const auto worker_start = std::chrono::steady_clock::now();
    obs::WorkerStats ws;
    RunResult local(mission, options.bucket_hours);
    FleetSimulator simulator(config, options.kernel_policy);
    FleetTrialResult trial;
    bool drained = false;
    while (!drained) {
      const std::size_t begin = next_trial.fetch_add(chunk);
      if (begin >= options.trials) break;
      const std::size_t end = std::min(begin + chunk, options.trials);
      for (std::size_t i = begin; i < end; ++i) {
        if (cancel_requested()) {
          drained = true;
          break;
        }
        const std::uint64_t index = options.first_trial_index + i;
        if (options.fault != nullptr) options.fault->check("runner_trial");
        auto rs = streams.stream(index);
        simulator.run_trial(
            rs, trial,
            options.trace ? options.trace->trial_slot(index) : nullptr);
        for (const auto& group : trial.per_group) {
          local.add_trial(group);
          if (options.telemetry) {
            // Telemetry counts group-missions, matching RunResult::trials.
            ++ws.trials;
            ws.ddfs += group.ddfs.size();
            ws.op_failures += group.op_failures;
            ws.latent_defects += group.latent_defects;
            ws.scrubs_completed += group.scrubs_completed;
            ws.restores_completed += group.restores_completed;
            ws.spare_arrivals += group.spare_arrivals;
          }
        }
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
    batch.trials = options.trials * config.groups.size();
    batch.wall_seconds = elapsed_seconds(batch_start);
    batch.trials_per_second =
        batch.wall_seconds > 0.0
            ? static_cast<double>(batch.trials) / batch.wall_seconds
            : 0.0;
    options.telemetry->add_batch(batch);
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      options.telemetry->set_stop_reason(
          {util::to_string(options.cancel->reason()), options.cancel->polls(),
           options.cancel->seconds_since_cancel()});
    }
  }
  return total;
}

}  // namespace raidrel::sim
