// Batched lockstep Monte Carlo engine: W independent group missions
// advanced together over structure-of-arrays slot state.
//
// GroupSimulator (the scalar engine) runs one mission at a time: every
// lifetime refill is a dependent scalar log/pow chain, so the FPU spends
// most of a trial waiting on one transcendental at a time. This engine
// advances a *lane* of W trials in lockstep rounds — every round each
// still-running trial dispatches exactly one event (the same event its
// scalar loop would pick next) — and groups the rounds' draws by event
// kind so the refills flow through CompiledLaw's bulk samplers
// (sample_n / sample_residual_n), where independent elements pipeline
// instead of serializing.
//
// Bit-reproducibility contract (docs/MODEL.md §12): every trial owns the
// private rng::RandomStream derived from (master seed, trial index) — the
// same stream the scalar engine would use — constructed once per lane, not
// once per draw. Within a trial, events dispatch in the scalar engine's
// exact order (the lane only regroups draws *across* trials, which is
// legal because the streams are independent), and the bulk samplers
// perform the scalar arithmetic per element. Therefore result(w) is
// bit-identical — EXPECT_EQ on every double — to GroupSimulator::run_trial
// on the same stream, for every configuration, proven by
// tests/batch_equivalence_test.cpp.
//
// Rarely-taken paths (spare-pool traffic, stripe-collision handling,
// reconstruction defects, DDF freeze-end clearing) run element-wise
// through the same scalar arithmetic; only the hot refills batch. Lanes
// that finish their mission drop out of the round loop, so a lane with one
// long-running trial degrades to the scalar engine's behavior, not worse.
//
// Configurations in the latent-credit scope (sim/latent_credit.h) are not
// run in lockstep: at about three events per trial the rounds would run
// nearly empty (docs/MODEL.md §19), so run_lane forwards each trial to a
// GroupSimulator on the trial's own stream. result(w) is then that
// engine's credited TrialResult — `ddfs` the realized sample path,
// `latent_credit` the estimate's input, latent_defects and
// scrubs_completed 0 — and occupancy() stays empty.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "obs/trace.h"
#include "raid/group_config.h"
#include "rng/rng.h"
#include "sim/group_simulator.h"
#include "sim/lane_ops.h"
#include "sim/slot_kernel.h"

namespace raidrel::sim {

/// Simulates missions of a fixed group configuration, `width` trials per
/// lane. Construct once per worker, call run_lane once per lane of trials.
/// The configuration (and its distributions) must outlive the simulator
/// and is never mutated, so one configuration can back many threads.
class BatchGroupSimulator {
 public:
  /// `width` >= 1 is the lane capacity; `policy` selects compiled or
  /// reference virtual kernels exactly as in GroupSimulator, and `tilt`
  /// carries the same importance-sampling semantics (present routes through
  /// the weighted samplers, unit tilt stays bit-identical, per-trial log
  /// weights land in TrialResult::log_weight). `tier` selects the bulk
  /// refills' math tier (sim/lane_ops.h): the default kExact keeps the
  /// bit-reproducibility contract above; kFast trades it for the
  /// polynomial transcendental kernels (statistically equivalent,
  /// deterministic per seed, but not bit-identical to the scalar engine).
  /// The lane backend itself (generic or AVX-512) is resolved at
  /// construction from util::active_isa() and never changes a bit at
  /// either tier.
  /// `curves` shares a run's latent-credit tables; null builds them here
  /// when the config is in scope. `double_op_probe` records
  /// TrialResult::double_op_probe exactly as GroupSimulator does.
  BatchGroupSimulator(const raid::GroupConfig& config, std::size_t width,
                      KernelPolicy policy = KernelPolicy::kLowered,
                      std::optional<TiltSpec> tilt = std::nullopt,
                      MathTier tier = MathTier::kExact,
                      std::shared_ptr<const LatentCurves> curves = nullptr,
                      bool double_op_probe = false);

  /// Simulate `count` (1..width()) missions in lockstep. Trial w draws
  /// from streams.stream(first_stream_index + w), so the lane's results
  /// are a pure function of (master seed, trial indices) regardless of how
  /// lanes are scheduled onto workers. `traces` is empty (no tracing) or
  /// holds at least `count` pointers: a non-null traces[w] is cleared and
  /// then records lane element w's event history exactly as the scalar
  /// engine would (the engines' test hook, see obs/trace.h).
  void run_lane(const rng::StreamFactory& streams,
                std::uint64_t first_stream_index, std::size_t count,
                std::span<obs::TrialTrace* const> traces = {});

  /// Outcome of lane element w from the last run_lane call; bit-identical
  /// to GroupSimulator::run_trial on the same stream.
  [[nodiscard]] const TrialResult& result(std::size_t w) const {
    return results_[w];
  }

  [[nodiscard]] std::size_t width() const noexcept { return width_; }

  /// Lane-occupancy profile of the last run_lane call (docs/MODEL.md
  /// §17): how full the lockstep rounds ran and how quickly lanes
  /// settled — the observable form of the settled-lane compaction win.
  struct LaneOccupancy {
    std::uint64_t rounds = 0;             ///< lockstep rounds executed
    std::uint64_t active_lane_rounds = 0; ///< Σ live lanes over rounds
    std::uint64_t capacity_lane_rounds = 0;  ///< Σ lane count over rounds
    /// Rounds bucketed by live/count ratio decile; hist[9] counts the
    /// full rounds, hist[0] the rounds running at <= 10% occupancy.
    std::uint64_t occupancy_hist[10] = {};
    std::uint64_t lanes_settled = 0;
    std::uint64_t settle_rounds_sum = 0;  ///< Σ settle round over lanes
    std::uint64_t settle_rounds_min = 0;  ///< 0 when nothing settled
    std::uint64_t settle_rounds_max = 0;
  };
  [[nodiscard]] const LaneOccupancy& occupancy() const noexcept {
    return occ_;
  }

 private:
  /// One classified event: lane element, slot, dispatch time. The lane
  /// layer's round_dispatch emits these directly into the kind buckets.
  using Ev = LaneEvent;

  enum class Law : std::uint8_t { kOp, kRestore, kLatent, kScrub };

  /// Event kinds cached per cell in next_kind_, in the scalar engine's
  /// dispatch-priority order for events at one instant: defect clears
  /// census first, then restores, then failures, then new defects.
  enum : std::uint8_t { kKindClear = 0, kKindRestore = 1, kKindOp = 2,
                        kKindLd = 3 };

  [[nodiscard]] std::size_t idx(std::uint32_t lane,
                                std::uint32_t slot) const noexcept {
    return static_cast<std::size_t>(lane) * nslots_ + slot;
  }
  [[nodiscard]] bool restoring(std::size_t i) const noexcept;
  [[nodiscard]] bool defective(std::size_t i) const noexcept;
  [[nodiscard]] const CompiledLaw& law_of(Law which,
                                          std::uint32_t slot) const noexcept;

  /// Fill out_scratch_[0..n) with one draw per element of elems[0..n) from
  /// its slot's `which` law; rs_scratch_ (and, for residual draws,
  /// age_scratch_) must already be gathered. Slot-uniform groups refill
  /// through one bulk call; mixed-law groups fall back to element-wise
  /// scalar draws (same values, smaller batching win).
  void bulk_sample(Law which, const Ev* elems, std::size_t n, bool residual);

  /// GroupSimulator::start_defect_countdown over every element of
  /// elems[0..n), at each element's own `t`, with the latent draws
  /// bulk-gathered.
  void bulk_defect_countdown(const Ev* elems, std::size_t n);

  // Element-wise mirrors of the scalar engine's handlers, drawing from
  // streams_[lane]; used on the cold paths (stripe collisions, freeze-end
  // clearing, reconstruction defects, spare-pool traffic).
  void scalar_defect_countdown(std::uint32_t lane, std::uint32_t slot,
                               double now);
  void scalar_latent_defect(std::uint32_t lane, std::uint32_t slot,
                            double now);
  void stripe_check(std::uint32_t lane, std::uint32_t slot, double now);
  void begin_restore(std::uint32_t lane, std::uint32_t slot, double now,
                     double duration);
  void request_spare(std::uint32_t lane, std::uint32_t slot, double now,
                     double duration);
  void handle_spare_arrival(std::uint32_t lane, double now);
  [[nodiscard]] double next_spare_arrival(std::uint32_t lane) const noexcept;
  [[nodiscard]] double probe_probability(std::uint32_t lane,
                                         std::uint32_t failed_slot,
                                         double now, double window) const;
  /// Declustered restore-time scale for one lane at the instant
  /// `failed_slot` fails — the scalar engine's census and arithmetic, on
  /// this lane's state slice.
  [[nodiscard]] double declustered_restore_scale(
      std::uint32_t lane, std::uint32_t failed_slot) const noexcept;

  // Per-kind round processors; each batches its leading refill draws and
  // finishes element-wise in lane order. Spare arrivals run first (the
  // scalar loop's tie priority) and draw no RNG.
  void process_spare_arrivals();
  void process_scrub_completions();
  void process_restore_dones();
  void process_op_failures();
  void process_latent_defects();

  const raid::GroupConfig& cfg_;
  /// Set for latent-credit configs: run_lane forwards every trial here and
  /// none of the lockstep state below is allocated.
  std::optional<GroupSimulator> forward_;
  std::vector<SlotKernel> kernels_;  ///< lowered laws, one per slot
  /// Constructor-resolved lane backend (never null) and math tier; every
  /// bulk refill and the round-loop argmin route through this table.
  const LaneOps* ops_;
  MathTier tier_;
  std::size_t width_;
  std::size_t nslots_;
  std::size_t count_ = 0;  ///< live lane size of the current run_lane
  bool uniform_law_[4] = {false, false, false, false};
  // Constructor-resolved configuration facts, hoisted out of the per-event
  // loops (cfg_ field loads and per-lane trace-pointer tests are measurable
  // at ~150 events/trial).
  bool has_zones_ = false;       ///< cfg_.stripe_zones != 0
  bool age_clock_ = false;       ///< latent clock is kDriveAge
  bool declustered_ = false;     ///< cfg_.rebuild == kDeclustered
  bool probe_ = false;           ///< record TrialResult::double_op_probe
  bool uniform_latent_present_ = false;  ///< every slot has the same latent law
  bool any_trace_ = false;       ///< some lane of the current run records
  // Importance-sampling state, mirroring GroupSimulator: tilted_ is true
  // whenever a TiltSpec was passed (unit or not). Per-lane log weights
  // accumulate in lw_; bulk refills assign per-element weight terms into
  // lw_scratch_ and scatter them lane by lane in bucket order, which adds
  // each lane's terms in exactly the scalar engine's dispatch sequence.
  HazardTilt op_tilt_;
  HazardTilt ld_tilt_;
  bool tilted_ = false;

  /// Per-cell slot state, indexed idx(lane, slot). Same fields, same
  /// semantics as detail::GroupCore::Slot, packed into exactly one cache
  /// line: an event handler's timer reads and writes land on a single
  /// line instead of walking six width-sized arrays (the pure-SoA
  /// layout spilled L1 at width 64 — docs/MODEL.md §17). next_event_
  /// and next_kind_ stay dense below so the fused round sweep scans
  /// contiguous timers with full-width vector loads.
  struct alignas(64) Cell {
    double next_op;
    double restore_done;
    double next_ld;
    double defect_occurred;
    double defect_clears;
    double install_time;
    double pending_restore_duration;
    std::uint64_t defect_zone;
  };
  static_assert(sizeof(Cell) == 64, "one cell per cache line");
  std::vector<Cell> cells_;
  std::vector<double> next_event_;  ///< cached min of the four timers
  /// Which timer won next_event_ (kKind*), resolved wherever a cell's
  /// timers change so round_dispatch buckets an event with one byte load
  /// instead of re-deriving the dispatch priority from three more timer
  /// loads. The canonical chain (the scalar dispatcher's <= priority:
  /// clear <= restore <= op <= ld) is collapsed at each write site to
  /// the timers that can actually be finite there; every site documents
  /// the invariant that justifies its collapse.
  std::vector<std::uint8_t> next_kind_;
  std::vector<std::uint8_t> awaiting_spare_;

  // Per-lane trial state.
  std::vector<rng::RandomStream> streams_;
  std::vector<TrialResult> results_;
  // Hot per-lane event counters, kept flat during the lane (a TrialResult
  // is ~90 bytes, so bumping its members ~150 times per trial pays a
  // multiply-addressed read-modify-write into a sparse footprint); folded
  // into results_ when the round loop finishes.
  std::vector<std::uint64_t> c_op_;
  std::vector<std::uint64_t> c_latent_;
  std::vector<std::uint64_t> c_scrub_;
  std::vector<std::uint64_t> c_restore_;
  std::vector<std::uint64_t> c_spare_;
  std::vector<double> lw_;  ///< per-lane running log weight (tilted runs)
  std::vector<obs::TrialTrace*> traces_;
  std::vector<double> group_failed_until_;
  std::vector<std::size_t> ddf_slot_;
  std::vector<unsigned> spares_available_;
  std::vector<std::vector<double>> pending_orders_;
  std::vector<std::vector<std::uint32_t>> spare_queue_;
  std::vector<std::size_t> spare_queue_head_;

  // Round state: lanes still inside their mission, and this round's events
  // classified by kind. The buckets are flat width_-sized arrays written
  // through a cursor (n_*_), not grown — a round holds at most one event
  // per lane. ops_->round_dispatch fills all of this in one fused sweep:
  // per-lane argmin, mission settling (lanes compact out of active_ in
  // place, stable order), spare-arrival tie-off, and kind bucketing.
  std::vector<std::uint32_t> active_;
  std::vector<Ev> bkt_spare_;
  std::vector<Ev> bkt_clear_;
  std::vector<Ev> bkt_restore_;
  std::vector<Ev> bkt_op_;
  std::vector<Ev> bkt_ld_;
  std::size_t n_spare_ = 0;
  std::size_t n_clear_ = 0;
  std::size_t n_restore_ = 0;
  std::size_t n_op_ = 0;
  std::size_t n_ld_ = 0;
  /// Per-lane next spare arrival, staged for round_dispatch when the
  /// configuration has a pool (indexed by lane id, width_-sized).
  std::vector<double> spare_next_;
  LaneOccupancy occ_;

  // Gather/scatter scratch for the bulk refills (width_-sized).
  std::vector<Ev> gather_;
  std::vector<Ev> countdown_gather_;
  std::vector<rng::RandomStream*> rs_scratch_;
  std::vector<double> out_scratch_;
  std::vector<double> age_scratch_;
  /// Cell indices cached by the refresh paths' gather passes so their
  /// scatter passes reuse them instead of recomputing lane * nslots + slot.
  std::vector<std::size_t> cell_scratch_;
  std::vector<double> lw_scratch_;  ///< per-element weight terms of a refill
  /// Per-element tilt horizons (mission remaining, or horizon age for
  /// residual draws), staged alongside the refill inputs; see HazardTilt.
  std::vector<double> horizon_scratch_;

  // probe_probability scratch, as in the scalar engine, plus flat passes:
  // the probe's cumulative-hazard pows are pure functions of slot state, so
  // evaluating h0 for every surviving slot, then h1, then the expm1 chain
  // lets the pow calls pipeline without changing a single value.
  mutable std::vector<double> probe_p_;
  mutable std::vector<double> probe_dist_;
  mutable std::vector<double> probe_age_;
  mutable std::vector<double> probe_h0_;
  mutable std::vector<double> probe_h1_;
  mutable std::vector<std::uint32_t> probe_slot_;
};

}  // namespace raidrel::sim
