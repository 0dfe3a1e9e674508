// Run telemetry: per-worker-thread counters and the structured JSON run
// manifest behind every Monte Carlo run.
//
// The Monte Carlo driver (sim/runner.cpp) is only trustworthy when its
// behavior is observable: how many trials each worker actually ran, how the
// event mix breaks down by type, how fast the engine went, and — for
// adaptive runs — how the sampling error shrank batch by batch. A
// RunTelemetry sink collects all of that with zero contention: each worker
// accumulates a private WorkerStats on its stack and hands it over exactly
// once, when the worker finishes (the sink's mutex is taken once per
// worker, not per trial). With no sink attached the driver skips every
// telemetry branch, so the hot path is unchanged.
//
// The manifest (write_json) is the diffable record of a run: master seed,
// config digest, thread count, per-batch trial ranges and convergence
// trajectory, event totals. Seed + digest + totals + batch trial ranges
// are bit-reproducible across machines and thread counts; wall times and
// the per-worker section are run-specific by nature.
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace raidrel::obs {

class JsonWriter;

/// FNV-1a 64-bit hash, used for config digests. `seed` allows chaining:
/// fnv1a64(b, fnv1a64(a)) hashes the concatenation a||b.
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t seed = 0xcbf29ce484222325ULL) noexcept;

/// Counters accumulated by one worker thread (or one whole run when
/// single-threaded). Event counts use the same definitions as
/// sim::TrialResult, so summing workers reproduces the RunResult counters
/// exactly.
struct WorkerStats {
  std::uint64_t trials = 0;
  std::uint64_t ddfs = 0;                ///< counted data-loss events
  std::uint64_t op_failures = 0;
  std::uint64_t latent_defects = 0;
  std::uint64_t scrubs_completed = 0;
  std::uint64_t restores_completed = 0;
  std::uint64_t spare_arrivals = 0;      ///< spares consumed by a waiter
  double wall_seconds = 0.0;             ///< this worker's busy time

  // Lane-occupancy profile of the batched engine's fused round loop
  // (sim::BatchGroupSimulator::LaneOccupancy), summed over every lane this
  // worker ran. All zero for scalar runs, which therefore serialize with
  // no occupancy keys at all. `occupancy_hist[d]` counts dispatch rounds
  // whose live-lane fraction fell in decile d (d == 9 is a full lane);
  // settle_rounds_{min,max} use 0 as "no lane settled yet" when merging.
  std::uint64_t lane_rounds = 0;          ///< dispatch rounds executed
  std::uint64_t active_lane_rounds = 0;   ///< sum of live lanes over rounds
  std::uint64_t capacity_lane_rounds = 0; ///< sum of lane capacity over rounds
  std::uint64_t occupancy_hist[10] = {};
  std::uint64_t lanes_settled = 0;
  std::uint64_t settle_rounds_sum = 0;    ///< sum of each lane's settle round
  std::uint64_t settle_rounds_min = 0;
  std::uint64_t settle_rounds_max = 0;

  WorkerStats& operator+=(const WorkerStats& o) noexcept;
};

/// One recorded fault-tolerance event: an injected or organic failure, a
/// retry, a quarantine decision, or a survived I/O error. The sweep engine
/// (sweep/sweep_runner.h) emits these so a run's telemetry records not
/// just what was computed but what was survived. `kind` is a small closed
/// vocabulary: "injected", "retry", "quarantine", "io-error",
/// "cache-reject", "stalled" (a cell exceeded a watchdog budget).
struct FaultEvent {
  std::string site;    ///< failure site name ("cell", "manifest_write", ...)
  std::string kind;
  std::uint64_t attempt = 0;  ///< attempt number the event happened on
  std::string detail;         ///< cell label, path, or exception text
};

/// One driver-level run (a whole run_monte_carlo call). Adaptive runs
/// (sim/convergence.h) record one batch per round, with the relative /
/// absolute SEM achieved after the batch merged — the convergence
/// trajectory.
struct BatchStats {
  std::uint64_t first_trial_index = 0;
  std::uint64_t trials = 0;
  double wall_seconds = 0.0;     ///< driver wall time, spawn to join
  double trials_per_second = 0.0;
  double relative_sem = -1.0;    ///< SEM/mean after this batch; <0 = n/a
  double absolute_sem = -1.0;    ///< SEM (DDFs/1000) after this batch; <0 = n/a
};

/// Importance-sampling parameters and weight diagnostics of a tilted run
/// (docs/MODEL.md §13). Recorded only for engaged (non-unit) tilt so
/// untilted manifests serialize byte-identically.
struct ImportanceSamplingStats {
  double op_theta = 1.0;
  double ld_theta = 1.0;
  double ess = 0.0;         ///< effective sample size (sum w)^2 / sum w^2
  double weight_sum = 0.0;  ///< sum of trial weights
  double max_weight = 0.0;  ///< weight-degeneracy flag: largest single w
};

/// Why a run stopped and what the stop cost (docs/MODEL.md §16). The
/// convergence loop records its stop rule here; cancelled or deadlined
/// runs additionally carry the cancellation-latency diagnostics. Recorded
/// only when a driver calls set_stop_reason, so manifests from layers that
/// never set one serialize byte-identically to before the field existed.
struct StopStats {
  std::string stop_reason;  ///< convergence StopRule name, "cancelled", ...
  std::uint64_t cancel_polls = 0;  ///< cancellation checks observed
  /// Cancel request -> drain complete, seconds; <0 = not cancelled.
  double cancel_latency_seconds = -1.0;
};

/// Telemetry sink for one logical run (possibly many batches). Attach via
/// sim::RunOptions::telemetry; reuse the same sink across convergence
/// batches so totals accumulate. add_worker is thread-safe; everything
/// else is meant for the driver thread.
class RunTelemetry {
 public:
  /// Stamp run identity. Called by the driver once per batch; repeated
  /// calls must agree on seed and digest (batches of one logical run).
  /// `batch_width` is the engine's lockstep lane width (1 = scalar), so a
  /// throughput regression in an archived manifest is attributable to the
  /// batching configuration that produced it. `isa` and `math_tier` name
  /// the batched engine's resolved SIMD backend and transform tier
  /// (sim/lane_ops.h); empty — the scalar engine — leaves the manifest
  /// without the corresponding keys, so pre-existing manifests keep their
  /// exact bytes.
  void configure(std::uint64_t master_seed, std::uint64_t config_digest,
                 unsigned threads, std::size_t batch_width = 1,
                 std::string_view isa = {}, std::string_view math_tier = {});

  void add_worker(const WorkerStats& ws);  // thread-safe
  void add_batch(const BatchStats& bs);
  /// Record the convergence trajectory point for the latest batch.
  void annotate_last_batch(double relative_sem, double absolute_sem);

  /// Record (or refresh — last write wins, so convergence loops overwrite
  /// per-batch values with cumulative ones) the importance-sampling
  /// diagnostics. The manifest gains an "importance_sampling" object only
  /// after this is called, so untilted runs serialize unchanged.
  void set_importance_sampling(const ImportanceSamplingStats& is);
  [[nodiscard]] bool has_importance_sampling() const noexcept {
    return has_importance_sampling_;
  }
  [[nodiscard]] const ImportanceSamplingStats& importance_sampling()
      const noexcept {
    return importance_sampling_;
  }

  /// Record (or refresh — last write wins, so a driver can overwrite a
  /// batch-level value with the run-level one) why the run stopped. The
  /// manifest gains "stop_reason" — and, for cancelled runs, a
  /// "cancellation" object with poll and latency counters — only after
  /// this is called, so prior manifests keep their exact bytes.
  void set_stop_reason(const StopStats& stop);
  [[nodiscard]] bool has_stop_reason() const noexcept {
    return has_stop_;
  }
  [[nodiscard]] const StopStats& stop() const noexcept { return stop_; }

  /// Record one fault-tolerance event (thread-safe). Events are appended
  /// in arrival order; the JSON manifest gains a "faults" array only when
  /// at least one event was recorded, so clean runs serialize unchanged.
  void add_fault_event(FaultEvent event);
  [[nodiscard]] std::vector<FaultEvent> fault_events() const;  ///< snapshot

  [[nodiscard]] WorkerStats totals() const;  ///< sum over workers
  [[nodiscard]] const std::vector<WorkerStats>& workers() const noexcept {
    return workers_;
  }
  [[nodiscard]] const std::vector<BatchStats>& batches() const noexcept {
    return batches_;
  }
  [[nodiscard]] std::uint64_t master_seed() const noexcept {
    return master_seed_;
  }
  [[nodiscard]] std::uint64_t config_digest() const noexcept {
    return config_digest_;
  }
  [[nodiscard]] unsigned threads() const noexcept { return threads_; }
  [[nodiscard]] std::size_t batch_width() const noexcept {
    return batch_width_;
  }
  /// Resolved SIMD backend / math tier names; empty for scalar runs.
  [[nodiscard]] const std::string& isa() const noexcept { return isa_; }
  [[nodiscard]] const std::string& math_tier() const noexcept {
    return math_tier_;
  }
  /// Driver wall time summed over batches.
  [[nodiscard]] double wall_seconds() const;
  /// Aggregate throughput: total trials / driver wall time.
  [[nodiscard]] double trials_per_second() const;

  /// Emit the JSON run manifest (schema: raidrel-run-manifest/1; see
  /// docs/MODEL.md §8).
  void write_json(std::ostream& os) const;
  /// Same manifest as a nested value of an already-open writer — lets a
  /// harness embed several runs in one enclosing document.
  void write_json(JsonWriter& w) const;
  [[nodiscard]] std::string json() const;

 private:
  mutable std::mutex mutex_;  ///< guards workers_/fault_events_ during the run
  std::vector<WorkerStats> workers_;
  std::vector<BatchStats> batches_;
  std::vector<FaultEvent> fault_events_;
  std::uint64_t master_seed_ = 0;
  std::uint64_t config_digest_ = 0;
  unsigned threads_ = 0;
  std::size_t batch_width_ = 1;
  std::string isa_;        ///< lane backend of batched runs; "" = scalar
  std::string math_tier_;  ///< transform tier of batched runs; "" = scalar
  bool configured_ = false;
  ImportanceSamplingStats importance_sampling_;
  bool has_importance_sampling_ = false;
  StopStats stop_;
  bool has_stop_ = false;
};

}  // namespace raidrel::obs
