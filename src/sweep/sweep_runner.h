// Sharded scenario-sweep engine with a digest-keyed result cache.
//
// A sweep is many independent cells; the runner shards them across the
// persistent sim::ThreadPool, one worker per shard, each cell simulated by
// sim::run_until_converged. Cells run single-threaded *inside* so every
// cell's result is a pure function of (config digest, seed, convergence
// options) — bit-identical no matter which worker runs it, how many cells
// run concurrently, or whether the sweep was interrupted and resumed.
//
// The result cache is a JSON manifest (schema raidrel-sweep-manifest/3,
// written via obs/json_writer, read back via obs/json_reader; a manifest of
// any other schema is not read). Every cell is keyed by a digest over its
// config digest plus everything else that determines its result. Each completed cell
// appends one checksummed, fdatasynced record to `<manifest>.journal`, so
// even a crash loses at most the in-flight cells; a compaction at sweep
// end folds the journal into the manifest (fsynced temp file, rename,
// directory fsync) and empties it. A rerun loads the manifest, replays the
// journal up to its first torn or damaged record, skips cells whose key
// matches, simulates the rest, and the merged manifest is byte-identical
// to what a single uninterrupted pass writes.
//
// The runner is fail-safe rather than fail-fast: a cell that keeps
// throwing is retried (bounded, deterministic backoff) and then
// *quarantined* — recorded in the manifest as an ErrorRecord while every
// other cell completes. Manifest and journal I/O failures degrade
// checkpointing instead of killing the sweep. SweepResult reports what
// was survived (quarantined / io_errors / retries) so drivers can exit
// non-zero on a degraded pass. Every failure path is reachable
// deterministically via fault/fault_injection.h (sites: manifest_read,
// journal_append, journal_sync, manifest_write, manifest_rename, cell,
// plus pool_task / runner_trial underneath).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_injection.h"
#include "sim/convergence.h"
#include "sweep/sweep_spec.h"

namespace raidrel::sweep {

struct SweepOptions {
  /// Per-cell adaptive run settings. The seed is shared by every cell:
  /// cells differ by configuration, and a shared seed is what makes an
  /// interrupted-then-resumed sweep reproduce a single pass exactly.
  sim::ConvergenceOptions convergence;

  /// Worker shards for the cell queue (0 = hardware concurrency). Cells
  /// themselves always run single-threaded — see the header comment.
  unsigned threads = 0;

  /// Manifest path for the result cache; empty disables caching (the
  /// sweep still runs, results are only returned in memory).
  std::string manifest_path;

  /// Load and reuse matching cells from an existing manifest. Off forces
  /// every cell to resimulate (the manifest is still rewritten).
  bool resume = true;

  /// Simulate at most this many not-yet-cached cells, then stop (0 = no
  /// cap). This is a deterministic "interrupt": the manifest holds the
  /// completed subset and a later run picks up the remainder.
  std::size_t max_cells = 0;

  /// Optional per-cell progress lines ("[3/12] scrub=168 ... 14.2 /1000").
  std::ostream* progress = nullptr;

  /// Optional fault injector. Armed sites fire inside this sweep
  /// (manifest_read / journal_append / journal_sync / manifest_write /
  /// manifest_rename / cell) and inside
  /// the execution layers underneath (pool_task, runner_trial). Null — the
  /// default — disables every check.
  fault::FaultInjector* fault = nullptr;

  /// Optional telemetry sink; the sweep records every fault-tolerance
  /// event there ("injected" / "retry" / "quarantine" / "io-error" /
  /// "cache-reject") in addition to the counters on SweepResult.
  obs::RunTelemetry* telemetry = nullptr;

  /// How many times one cell may be attempted before it is quarantined.
  /// (Manifest and journal I/O and the worker fan-out get a fixed 3
  /// attempts each; see docs/MODEL.md §11.)
  unsigned cell_attempts = 2;

  /// Base for the deterministic exponential retry backoff: attempt k
  /// sleeps retry_backoff_ms * 2^(k-1) milliseconds. 0 (the default)
  /// retries immediately — the schedule is a pure function of the attempt
  /// number either way.
  double retry_backoff_ms = 0.0;

  /// Per-cell trial budget: when positive, clamps the convergence
  /// max_trials and a cell that still has not converged at the clamp is
  /// quarantined (site "cell_deadline") instead of being recorded as an
  /// ordinary budget stop. The clamp feeds cell_cache_key, so deadline
  /// runs never collide with unclamped cache entries.
  std::size_t cell_trial_deadline = 0;

  /// Cooperative cancellation for the whole sweep (util/cancel.h),
  /// typically tripped by a driver's SignalGuard or wall-clock deadline.
  /// Workers poll it before claiming each cell and the engines poll it
  /// between trials: in-flight cells abandon their partial run (nothing
  /// partial ever reaches the manifest), unclaimed cells stay pending, and
  /// the drained sweep still compacts every completed cell into the
  /// manifest — so an interrupted sweep reruns the remainder and converges
  /// to byte-identical bytes.
  /// Null — the default — disables the polls entirely.
  util::CancelToken* cancel = nullptr;

  /// Soft per-cell wall-clock budget, seconds (0 = off). Every cell
  /// attempt runs under a child token carrying this deadline; an attempt
  /// that exceeds it drains at the next trial boundary and the cell is
  /// quarantined (site "cell_stalled") instead of stalling the sweep.
  /// Wall clock never feeds the cache key and a stalled cell is never
  /// written as a result, so a clean resume that re-runs it converges to
  /// the byte-identical single-pass manifest.
  double cell_soft_budget_seconds = 0.0;

  /// Hard per-cell watchdog budget, seconds (0 = off). A monitor thread
  /// flags any attempt still in flight past this bound — a
  /// "watchdog_hard" io_error record plus a telemetry "stalled" event —
  /// so the sweep reports degradation instead of hanging silently. The
  /// watchdog never kills a worker (nothing cooperative could resume
  /// safely afterwards); a truly non-cooperative wedge is backstopped by
  /// the drivers' second-signal forced exit.
  double cell_hard_budget_seconds = 0.0;
};

/// One failure the sweep survived: a quarantined cell, or an I/O-layer
/// error that degraded (but did not stop) the sweep. Quarantined cells are
/// persisted in the manifest; io_errors are in-memory only.
struct ErrorRecord {
  /// "cell", "cell_deadline", "cell_stalled" (soft budget exceeded),
  /// "watchdog_hard" (hard budget exceeded, io_errors only),
  /// "manifest_write", ...
  std::string site;
  std::size_t index = 0;  ///< cell index; 0 for non-cell errors
  std::string label;      ///< cell label, or the path for I/O errors
  std::uint64_t cell_key = 0;  ///< cache key of the cell; 0 for I/O errors
  std::uint64_t attempts = 0;  ///< attempts consumed before giving up
  std::string message;         ///< what() of the last attempt's exception
};

/// One cell's persisted outcome. Every field except `from_cache` is written
/// to the manifest and required when it is read back; `result_digest` is an
/// FNV-1a hash over the canonical serialization of the numeric outcome, so
/// caches can be verified and whole sweeps compared by a single number.
struct CellResult {
  std::size_t index = 0;
  std::string label;
  std::vector<std::pair<std::string, std::string>> coordinates;
  std::uint64_t config_digest = 0;
  std::uint64_t cell_key = 0;
  bool from_cache = false;  ///< not serialized

  std::uint64_t trials = 0;
  std::uint64_t batches = 0;
  bool converged = false;
  std::string stop;  ///< sim::to_string of the stop rule
  double total_ddfs_per_1000 = 0.0;
  double sem_per_1000 = 0.0;
  /// SEM/mean; -1 when the mean is zero (matches obs::BatchStats's "n/a"
  /// convention — JSON has no infinity).
  double relative_sem = -1.0;
  double year1_ddfs_per_1000 = 0.0;  ///< Table 3's first-year column
  double double_op_per_1000 = 0.0;
  double latent_then_op_per_1000 = 0.0;
  std::uint64_t op_failures = 0;
  std::uint64_t latent_defects = 0;
  std::uint64_t scrubs_completed = 0;
  std::uint64_t restores_completed = 0;
  /// Op tilt the cell ran with (docs/MODEL.md §13; 1 = untilted) and the
  /// effective sample size achieved, which equals `trials` when untilted.
  double op_tilt = 1.0;
  double ess = 0.0;
  /// Rebuild placement model the cell ran with (raid::to_string).
  std::string rebuild;
  /// Which estimator produced the numbers (sim/latent_credit.h): "events"
  /// or "latent-credit" — a latent-credited cell's latent_defects and
  /// scrubs_completed are 0 — and, for the event path, why the cell is out
  /// of the latent-credit scope (empty when credited). Both follow from
  /// the cell's configuration; the estimator is hashed into the result
  /// digest.
  std::string estimator;
  std::string estimator_reason;
  std::uint64_t result_digest = 0;
};

struct SweepResult {
  /// Completed cells in expansion order. Equal to the full cell list
  /// unless max_cells stopped the sweep early.
  std::vector<CellResult> cells;
  std::size_t total_cells = 0;   ///< size of the expansion
  std::size_t simulated = 0;     ///< cells run this invocation
  std::size_t cached = 0;        ///< cells loaded from the manifest
  bool complete = false;         ///< every cell has a result
  /// FNV-1a chain over the cells' result digests in index order; two
  /// sweeps with equal digests produced bit-identical results. 0 while
  /// incomplete.
  std::uint64_t sweep_digest = 0;

  /// Latent-credit renewal tables this pass built (sim/latent_credit.h):
  /// one per distinct (latent rate, scrub law) among the simulated cells,
  /// however many cells share it.
  std::size_t latent_tables_built = 0;

  /// Cells that exhausted their attempts, sorted by index. A quarantined
  /// cell has no entry in `cells` and keeps `complete` false.
  std::vector<ErrorRecord> quarantined;
  /// Survived non-cell failures (manifest I/O, dead worker fan-out).
  std::vector<ErrorRecord> io_errors;
  std::uint64_t retries = 0;          ///< retry attempts consumed anywhere
  std::uint64_t faults_injected = 0;  ///< InjectedFaults observed (testing)

  /// True when SweepOptions::cancel was tripped before every cell
  /// resolved: in-flight cells were abandoned, unclaimed cells stay
  /// pending, and the manifest holds every completed cell. Drivers
  /// map this to their documented "interrupted" exit code.
  bool interrupted = false;
  /// Why the sweep stopped early ("cancelled" / "deadline"); empty when
  /// it ran to completion.
  std::string stop_reason;
  /// Seconds from the cancel request until the workers finished draining;
  /// negative when never cancelled.
  double cancel_latency_seconds = -1.0;
  /// Stalled-cell observations: soft-budget drains plus hard-watchdog
  /// flags (a cell can contribute to both).
  std::uint64_t stalled = 0;

  /// Number of cells that failed permanently this invocation.
  [[nodiscard]] std::size_t failed() const noexcept {
    return quarantined.size();
  }
  /// True when the sweep survived failures a driver should report: exit
  /// non-zero even though results were produced.
  [[nodiscard]] bool degraded() const noexcept {
    return !quarantined.empty() || !io_errors.empty();
  }
};

/// Digest keying one cell's cache entry: the config digest chained with
/// the seed, every convergence option that affects the outcome, and the
/// estimator the cell runs (latent credit or the event path).
std::uint64_t cell_cache_key(std::uint64_t config_digest,
                             const sim::ConvergenceOptions& options,
                             bool latent_credit = false);

/// Canonical digest of a cell's numeric outcome (see CellResult).
std::uint64_t cell_result_digest(const CellResult& r);

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options);

  /// Expand the spec and run it: load the cache, shard the pending cells
  /// across the pool, journal every completion, compact at the end.
  SweepResult run(const SweepSpec& spec);

  /// Same, over a pre-expanded cell list (callers that post-process cells
  /// or splice several specs together).
  SweepResult run(const std::string& sweep_name,
                  const std::vector<SweepCell>& cells);

 private:
  SweepOptions options_;
};

}  // namespace raidrel::sweep
