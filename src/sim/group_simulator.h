// Event-driven sequential Monte Carlo simulation of one RAID group mission
// (the primary engine; implements the state logic of the paper's Fig. 4
// using the sampling procedure of its §5).
//
// Per disk slot the simulator tracks
//   * the scheduled operational failure of the currently installed drive
//     (a fresh lifetime is drawn from d_Op at every replacement);
//   * the restore-completion time while a replacement is being rebuilt
//     (drawn from d_Restore, whose location parameter encodes the physical
//     minimum rebuild time);
//   * latent defects as the paper's alternating renewal process: a healthy
//     drive counts down a d_Ld draw to its next defect; the defect stays
//     outstanding for a d_Scrub draw (forever without scrubbing), and only
//     after the scrub completes is a new d_Ld countdown started ("a new
//     TTOp (or TTLd) is sampled, added to the previous sum", paper §5).
//     A drive therefore carries at most one outstanding defect — which is
//     also all the DDF rule can observe, since data loss depends on how
//     many *drives* are defective, not how many sectors.
//
// Data-loss (DDF) rule, evaluated at every operational-failure instant:
// faulted drives = drives down or rebuilding (including the one that just
// failed) plus *other* drives carrying an outstanding latent defect; data
// is lost when faulted drives exceed the group redundancy. The census and
// the probe are exact for any redundancy m >= 1 (general m-fault-tolerant
// erasure codes), not just the paper's N+1 / N+2. Latent-defect arrivals
// never trigger data loss by themselves (paper §5: an operational failure
// followed by a latent defect is not a DDF).
//
// Under raid::RebuildModel::kDeclustered each restore draw is scaled by
// data_drives / surviving-sources at the failure instant (docs/MODEL.md
// §15); the dedicated-spare default leaves every draw untouched.
//
// After a DDF the group cannot fail again until the concomitant restore
// completes (paper §5); on completion the group re-enters the paper's
// state 1 ("fully functional, no latent defects"), so outstanding defects
// are cleared and their drives start fresh defect countdowns.
//
// Configurations in the latent-credit scope (sim/latent_credit.h: m = 1,
// exponential TTLd, ...) simulate no defect or scrub events at all: each
// slot keeps only the instant since which its latent state is unobserved,
// and each censused op failure with no other drive down credits the
// probability P that some partner is defective (TrialResult::
// latent_credit), then draws Bernoulli(P) to decide the realized DDF
// (docs/MODEL.md §19). TrialResult::ddfs stays a valid sample path of the
// model; RunResult folds the credits, not the realized latent-then-op
// DDFs, into its estimates; latent_defects and scrubs_completed count
// simulated events only, so they stay 0 on credited trials. Credited
// trials also mark every op failure of a slot's first drive
// (TrialResult::first_drive_failures), the input of the first-drive
// control variate; marking draws nothing.
//
// The per-group state and handlers live in detail::GroupCore and the event
// loop in detail::run_missions; FleetSimulator runs one core per group
// through the same loop against a shared detail::SparePool (docs/MODEL.md
// §18).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "obs/trace.h"
#include "raid/group_config.h"
#include "rng/rng.h"
#include "sim/latent_credit.h"
#include "sim/slot_kernel.h"

namespace raidrel::sim {

/// Outcome of simulating one group over one mission.
struct TrialResult {
  /// The realized sample path's data losses. On latent-credited trials its
  /// latent-then-op entries are Bernoulli draws; the estimate uses
  /// `latent_credit` instead (see RunResult::add_trial).
  std::vector<raid::DdfEvent> ddfs;

  /// Latent-credit estimator (docs/MODEL.md §19): one entry per censused
  /// op failure with no other drive down, (failure time, probability that
  /// some partner carried a latent defect at that instant). Empty unless
  /// `latent_credited`.
  std::vector<std::pair<double, double>> latent_credit;
  bool latent_credited = false;

  /// First-drive control variate (docs/MODEL.md §19): on credited trials,
  /// one entry per op failure of a drive installed at t = 0, (failure
  /// time, that slot's first_drive_constants entry c_i), whether or not
  /// the failure was censused. RunResult subtracts each c_i and adds back
  /// its expectation. Empty unless `latent_credited`.
  std::vector<std::pair<double, double>> first_drive_failures;

  /// Conditional-expectation probe (docs/MODEL.md §4), recorded only when
  /// the engine was built with the probe on (RunOptions::double_op_probe;
  /// empty otherwise): one entry per censused operational failure with
  /// restore window left in the mission, (failure time, probability that
  /// this failure *initiates* a data loss, i.e. that enough other drives
  /// fail operationally inside its sampled restore window). Each potential
  /// DDF is credited exactly once — to the failure that opens the exposure
  /// window; failures completing an already-critical overlap contribute 0.
  /// For rare-DDF scenarios (the paper's Fig. 6 regime) summing these
  /// probabilities estimates multi-operational DDFs with orders of
  /// magnitude less variance than counting.
  std::vector<std::pair<double, double>> double_op_probe;

  /// Log importance weight of the trial: the exact log-likelihood-ratio of
  /// the nominal law against the tilted proposal, summed over every tilted
  /// draw. Exactly 0.0 for untilted (and unit-tilt) runs, so
  /// exp(log_weight) == 1.0 and weighted estimators reduce bit-identically
  /// to the plain ones.
  double log_weight = 0.0;

  std::uint64_t op_failures = 0;
  /// Simulated defect arrivals and scrub completions: 0 on credited trials.
  std::uint64_t latent_defects = 0;
  std::uint64_t scrubs_completed = 0;
  std::uint64_t restores_completed = 0;
  /// Spare-pool replenishments consumed by a drive that was waiting for
  /// one (arrivals that restock an idle pool are not counted — they have
  /// no per-drive owner). Always 0 without a spare pool.
  std::uint64_t spare_arrivals = 0;

  void clear();
};

namespace detail {

/// Spare stock behind one event loop: a group's private
/// GroupConfig::spare_pool or a fleet's FleetConfig::shared_pool. Each
/// consumed spare triggers one reorder that arrives after the lead time
/// (kanban); drives that find the pool empty wait in one FIFO across every
/// group of the loop. Without a configuration a spare is always on hand.
class SparePool {
 public:
  struct Waiter {
    std::size_t group;
    std::size_t slot;
  };

  explicit SparePool(std::optional<raid::SparePoolConfig> config);

  /// Restock to capacity and forget every order and waiter.
  void reset();
  /// Take a spare for a drive failing at `now`; false when the pool is
  /// empty (the caller then queues the drive with wait()).
  bool take(double now);
  void wait(Waiter waiter) { queue_.push_back(waiter); }
  /// Earliest pending replenishment, +inf when none is on order.
  [[nodiscard]] double next_arrival() const noexcept;
  /// Receive the replenishment due at `now`: it restocks an idle pool, or
  /// goes straight to the longest waiter (returned) and is reordered.
  std::optional<Waiter> arrive(double now);
  [[nodiscard]] std::size_t waiting() const noexcept {
    return queue_.size() - head_;
  }

 private:
  std::optional<raid::SparePoolConfig> config_;
  unsigned available_ = 0;
  std::vector<double> orders_;  ///< replacement arrival times
  // FIFO as a vector plus a head index so popping the front is O(1); the
  // storage is recycled whenever the queue drains.
  std::vector<Waiter> queue_;
  std::size_t head_ = 0;
};

/// Per-group state and the Fig. 4 event handlers of one RAID group. The
/// event loop (run_missions) drives one core for GroupSimulator and one
/// per group for FleetSimulator, so both engines share every handler.
class GroupCore {
 public:
  /// See GroupSimulator's constructor for `policy`, `tilt` and `probe`.
  /// `curves` must cover the config's slots when it is in the
  /// latent-credit scope (and is ignored otherwise); it must outlive the
  /// core.
  GroupCore(const raid::GroupConfig& config, KernelPolicy policy,
            const std::optional<TiltSpec>& tilt,
            const LatentCurves* curves, bool probe);

  /// Reset per-mission state and install a fresh drive in every slot.
  void start(rng::RandomStream& rs);
  /// Earliest pending event of the group (the first slot holding it wins
  /// ties); +inf when nothing is pending.
  [[nodiscard]] double next_time() const noexcept { return next_time_; }
  /// Dispatch the group's pending event at next_time(). `group` names this
  /// core in the pool's FIFO and in the trace. Inline (defined in
  /// group_simulator.cpp, its only caller's file): a call per event costs
  /// the scalar engine measurable throughput.
  inline void step(std::size_t group, rng::RandomStream& rs,
                   TrialResult& out, SparePool& pool, obs::TrialTrace* trace);
  /// Begin the rebuild of a slot that was waiting for the spare arriving
  /// at `now`.
  void resume_restore(std::size_t slot, double now);
  [[nodiscard]] double mission_hours() const noexcept {
    return cfg_.mission_hours;
  }
  [[nodiscard]] double log_weight() const noexcept { return log_w_; }
  [[nodiscard]] bool latent_credited() const noexcept { return credit_; }

 private:
  struct Slot {
    double install_time = 0.0;
    /// Absolute op-failure time; +inf when rebuilding or when the drive
    /// outlives the mission.
    double next_op = 0.0;
    double restore_done = 0.0;   ///< absolute; +inf when operational
    double next_ld = 0.0;        ///< next defect arrival; +inf if n/a
    double defect_occurred = 0.0;///< outstanding defect birth; +inf if none
    double defect_clears = 0.0;  ///< scrub completion; +inf w/o scrub/defect
    std::uint64_t defect_zone = 0;  ///< stripe zone (stripe_zones > 0 only)
    /// Latent credit: the drive's latent state is unobserved since this
    /// instant, when it was last known clean.
    double seen_clean = 0.0;
    bool awaiting_spare = false; ///< failed, rebuild blocked on the pool
    /// The drive installed at t = 0 is still in the slot (credited path's
    /// first-drive mark; set by start, cleared at the drive's failure).
    bool first_drive = false;
    double pending_restore_duration = 0.0;  ///< sampled TTR while waiting
    /// Cached min of the four timers above, maintained by every mutator so
    /// the group minimum reads one double per slot.
    double next_event = 0.0;

    /// Down: rebuilding or blocked on a spare (counts as a fault either way).
    [[nodiscard]] bool restoring() const noexcept;
    [[nodiscard]] bool defective() const noexcept;
  };

  void install_fresh_drive(std::size_t i, double now, rng::RandomStream& rs);
  void start_defect_countdown(std::size_t i, double now,
                              rng::RandomStream& rs);
  void handle_op_failure(std::size_t group, std::size_t i, double now,
                         rng::RandomStream& rs, TrialResult& out,
                         SparePool& pool);
  void handle_restore_done(std::size_t i, double now, rng::RandomStream& rs,
                           TrialResult& out);
  void handle_latent_defect(std::size_t i, double now, rng::RandomStream& rs,
                            TrialResult& out);
  /// Latent credit: probability that some operational drive other than
  /// `failed_slot` is defective at `now`.
  [[nodiscard]] double latent_loss_probability(std::size_t failed_slot,
                                               double now) const;

  /// Begin the physical rebuild of a failed slot (a spare is in hand).
  void begin_restore(std::size_t i, double now, double duration);

  /// Recompute the cached earliest pending event time of a slot; must run
  /// after any handler mutates one of the slot's four timers.
  static void refresh_next_event(Slot& s) noexcept;
  /// Recompute the group minimum (next_time_, next_slot_) from the slots.
  inline void refresh_next_time() noexcept;

  /// Probability that enough other currently operational drives fail inside
  /// (now, now + window] to exceed the redundancy, from their exact
  /// residual lifetimes (util::poisson_binomial_tail over per-drive window
  /// probabilities — exact m-overlap events for any redundancy).
  [[nodiscard]] double probe_probability(std::size_t failed_slot, double now,
                                         double window) const;

  /// Declustered restore-time scale at the instant slot `failed_slot`
  /// fails: data_drives / surviving rebuild sources (other drives not down
  /// or rebuilding; defective-but-operational drives still serve reads and
  /// count). See raid::RebuildModel::kDeclustered.
  [[nodiscard]] double declustered_restore_scale(
      std::size_t failed_slot) const noexcept;

  const raid::GroupConfig& cfg_;
  std::vector<SlotKernel> kernels_;  ///< lowered laws, one per slot
  /// Per slot, the op law's censor index at the mission end: untilted
  /// installs skip the transform of lifetimes no event can reach.
  std::vector<std::uint64_t> op_censor_;
  std::vector<Slot> slots_;
  double next_time_ = 0.0;
  std::size_t next_slot_ = 0;
  // Importance-sampling state: tilted_ is true whenever a TiltSpec was
  // passed (unit or not) so the unit-tilt equivalence tests exercise the
  // weighted kernels; log_w_ accumulates the running trial's log weight.
  HazardTilt op_tilt_;
  HazardTilt ld_tilt_;
  bool tilted_ = false;
  bool declustered_ = false;  ///< cfg_.rebuild == kDeclustered
  bool probe_ = false;        ///< record TrialResult::double_op_probe
  /// Latent-credit path (sim/latent_credit.h): no defect or scrub events;
  /// curves_ holds each slot's A(tau).
  bool credit_ = false;
  std::vector<const analytic::LatentCurve*> curves_;
  std::vector<double> first_drive_c_;  ///< first_drive_constants(curves_)
  double log_w_ = 0.0;
  double group_failed_until_ = 0.0;  ///< DDF freeze window end
  std::size_t ddf_slot_ = SIZE_MAX;  ///< slot whose restore ends the freeze

  // Scratch buffers for probe_probability, sized to the group so groups of
  // any width are counted in full (probe_dist_ holds the Poisson-binomial
  // count distribution, hence one extra element).
  mutable std::vector<double> probe_p_;
  mutable std::vector<double> probe_dist_;
};

/// Tournament tree over the group indices of one event loop: each node
/// holds the index of the core with the earliest next_time() below it, the
/// left (lower-index) side winning ties, so the root is the lowest group
/// holding the earliest event. Leaves are padded to a power of two; a
/// padded leaf names the last group, which always sits to its left, so it
/// never wins a match and needs no sentinel time. Sized once by its owner;
/// a one-group loop is a one-leaf tree whose root is group 0.
class GroupTournament {
 public:
  explicit GroupTournament(std::size_t groups);

  /// Replay every match from the cores' current next_time().
  void build(std::span<const GroupCore> cores) noexcept;
  /// Replay the matches above `group` after its next_time() changed; the
  /// other cores' times must be unchanged since the last build or update.
  inline void update(std::span<const GroupCore> cores,
                     std::size_t group) noexcept;
  [[nodiscard]] std::size_t winner() const noexcept { return nodes_[1]; }

 private:
  std::size_t leaves_;  ///< power of two >= groups
  /// nodes_[1] is the root, node n's children are 2n and 2n + 1, and
  /// group g's leaf is nodes_[leaves_ + g].
  std::vector<std::size_t> nodes_;
};

/// The event loop shared by GroupSimulator and FleetSimulator: simulate one
/// mission of every core against one pool into `out` (one cleared result
/// per core); a non-null `trace` is cleared first. `tree` is sized to the
/// cores. The next event is the tree's winner: the lowest group holding
/// the earliest event, then its first slot holding it; a spare arrival at
/// the same instant goes first. After each event only the group it touched
/// (the one that stepped, or the one a spare arrival resumed) replays its
/// matches, so an event costs O(log G), not O(G).
void run_missions(std::span<GroupCore> cores, SparePool& pool,
                  GroupTournament& tree, rng::RandomStream& rs,
                  std::span<TrialResult> out, obs::TrialTrace* trace);

}  // namespace detail

/// Simulates missions of a fixed group configuration. Construct once, call
/// run_trial once per mission with that trial's private random stream.
/// The configuration (and its distributions) must outlive the simulator and
/// is never mutated, so one configuration can back many threads. Configs in
/// the latent-credit scope run the credited path (see the file comment).
class GroupSimulator {
 public:
  /// `policy` selects between the compiled sampling kernels (default) and
  /// the reference virtual-dispatch path; both produce bit-identical event
  /// histories (see slot_kernel.h). When `tilt` is present, op and latent
  /// lifetimes are drawn from the hazard-scaled proposal and the trial's
  /// exact log-likelihood-ratio is reported in TrialResult::log_weight; a
  /// present-but-unit tilt exercises the weighted kernels and is
  /// bit-identical to the plain path. Engaged (non-unit) tilt requires the
  /// op/latent laws to be lowerable (no kVirtual fallback, which also rules
  /// out KernelPolicy::kVirtualOnly). `curves` shares a run's latent-credit
  /// tables; null builds them here when the config is in scope.
  /// `double_op_probe` records TrialResult::double_op_probe (off leaves it
  /// empty and changes nothing else).
  explicit GroupSimulator(const raid::GroupConfig& config,
                          KernelPolicy policy = KernelPolicy::kLowered,
                          std::optional<TiltSpec> tilt = std::nullopt,
                          std::shared_ptr<const LatentCurves> curves = nullptr,
                          bool double_op_probe = false);

  /// Simulate one full mission; `out` is cleared first. Deterministic given
  /// the stream state. When `trace` is non-null it is cleared and then
  /// receives every dispatched event in processing order (see obs/trace.h);
  /// tracing does not consume random draws, so traced and untraced runs of
  /// the same stream are identical.
  void run_trial(rng::RandomStream& rs, TrialResult& out,
                 obs::TrialTrace* trace = nullptr);

 private:
  std::shared_ptr<const LatentCurves> curves_;
  detail::GroupCore core_;
  detail::SparePool pool_;
  detail::GroupTournament tree_{1};
};

}  // namespace raidrel::sim
