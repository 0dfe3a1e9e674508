// RAID group description consumed by the simulation engines.
//
// A group is `total_drives` disk slots protected by `redundancy` drives'
// worth of erasure coding — an (n, n-m) code tolerating any m concurrent
// faults: redundancy 1 models the paper's N+1 (RAID 4/5) groups,
// redundancy 2 the RAID 6 extension its conclusion points to, and m >= 3
// the many-check-drive codes of Mann et al. (PAPERS.md). Data is lost
// when the number of *simultaneously* failed or defective drives exceeds
// the redundancy: m concurrent operational failures plus outstanding
// latent defects on other drives, with one more fault of either kind,
// lose data. Simultaneous latent defects alone never fail the array (they
// would have to share a stripe, which the paper deems negligible and does
// not model).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "stats/distribution.h"

namespace raidrel::raid {

/// Per-slot transition laws (Fig. 4 of the paper). `time_to_latent_defect`
/// and `time_to_scrub` may be null: no latent defects / no scrubbing.
struct SlotModel {
  stats::DistributionPtr time_to_op_failure;     ///< d_Op (required)
  stats::DistributionPtr time_to_restore;        ///< d_Restore (required)
  stats::DistributionPtr time_to_latent_defect;  ///< d_Ld (optional)
  stats::DistributionPtr time_to_scrub;          ///< d_Scrub (optional)

  [[nodiscard]] SlotModel clone() const;
  [[nodiscard]] bool latent_defects_enabled() const noexcept {
    return time_to_latent_defect != nullptr;
  }
  [[nodiscard]] bool scrubbing_enabled() const noexcept {
    return time_to_scrub != nullptr;
  }
};

/// Finite spare-drive pool (optional). The paper folds "the delay time to
/// physically incorporate the spare HDD" into d_Restore's location; this
/// models the delay mechanistically instead: a group stocks `capacity`
/// spares, each consumption triggers a replacement order that arrives
/// after `replenish_hours`, and a failed drive whose pool is empty waits
/// (fully exposed) for the next arrival before its rebuild can start.
struct SparePoolConfig {
  unsigned capacity = 1;
  double replenish_hours = 24.0;
};

/// How the latent-defect law's clock advances.
enum class LatentClock : std::uint8_t {
  /// Paper §5: after a scrub completes, "a new TTLd is sampled" — the law
  /// measures time since the drive last became defect-free. Exact for the
  /// paper's beta = 1 base case (memoryless), and the default.
  kRenewal,
  /// Usage-driven: the law's clock is the drive's age, so arrivals form an
  /// NHPP with the law's hazard (paused while a defect is outstanding).
  /// Required for age-/phase-dependent laws such as
  /// stats::PiecewiseConstantHazard duty cycles — under kRenewal a drive
  /// scrubbed in year 5 would wrongly restart in the law's year-1 phase.
  /// Identical to kRenewal when the law is exponential.
  kDriveAge,
};

/// How a failed drive's data is rebuilt.
enum class RebuildModel : std::uint8_t {
  /// The paper's model: the failed drive rebuilds onto one dedicated
  /// replacement at the full d_Restore law, independent of group state.
  kDedicatedSpare,
  /// Declustered placement (Mann et al., "More Check Drives"): every
  /// surviving drive contributes rebuild bandwidth, so the effective
  /// restore time scales with the surviving-source count at the failure
  /// instant:
  ///   t_restore = t_base * (n_data / n_surviving_rebuild_sources),
  /// where t_base is the d_Restore draw and the sources are the other
  /// drives not down or rebuilding (defective-but-operational drives
  /// still serve reads and count). A healthy group has more sources than
  /// data drives, so declustering *speeds up* the first rebuild; as
  /// drives fail mid-rebuild later restores slow down. The scale is
  /// fixed when the failure occurs (in-flight rebuilds are not
  /// re-scaled), and spare handling is copyback-free: the rebuilt data
  /// stays spread across the group, so no second copyback pass follows
  /// a completed restore.
  kDeclustered,
};

/// Full group configuration.
struct GroupConfig {
  std::vector<SlotModel> slots;   ///< one entry per drive
  unsigned redundancy = 1;        ///< check drives m (1 = RAID5, 2 = RAID6,
                                  ///< m >= 3 = general erasure codes)
  double mission_hours = 87600.0; ///< simulated horizon (paper: 10 years)

  /// When the restore that ends a DDF completes, wipe outstanding latent
  /// defects group-wide (the paper's state 1: "all HDDs operating, no
  /// latent defects"). Disable to leave uninvolved drives' defects in
  /// place — the convention of the paper's §5 pairwise procedure, used by
  /// the TimingDiagramEngine and by the engine cross-validation tests.
  bool clear_defects_on_ddf_restore = true;

  /// Absent = a spare is always on hand (the paper's assumption).
  std::optional<SparePoolConfig> spare_pool;

  /// Stripe-collision refinement. The paper dismisses latent defects that
  /// "coexist in blocks from a single data stripe across more than one
  /// HDD" as "an extremely rare event that is not modeled". Setting this
  /// to a positive number of stripe zones models it: every defect lands in
  /// a uniformly random zone, and defects sharing a zone on more than
  /// `redundancy` drives lose that stripe's data (DdfKind::
  /// kLatentStripeCollision). 0 (default) reproduces the paper exactly.
  /// Real geometry: a drive holds millions of stripes, so realistic values
  /// make collisions vanish — which is the point of the ablation.
  unsigned stripe_zones = 0;

  /// Latent-defect clock semantics (see LatentClock).
  LatentClock latent_clock = LatentClock::kRenewal;

  /// Rebuild placement model (see RebuildModel). The default reproduces
  /// the paper exactly; kDeclustered scales each restore draw by the
  /// surviving-source ratio at the failure instant.
  RebuildModel rebuild = RebuildModel::kDedicatedSpare;

  /// Probability that a completed rebuild leaves a write-error latent
  /// defect on the reconstructed drive (paper §4.2: "Write-errors that
  /// occur during reconstruction ... will remain as latent defects, but
  /// their creation during a reconstruction does not constitute a DDF").
  /// Physically ~ capacity written x write-error rate per Byte; see
  /// workload::reconstruction_defect_probability. 0 = the paper's base
  /// model (the effect folded into the measured defect rate).
  double reconstruction_defect_probability = 0.0;

  [[nodiscard]] unsigned total_drives() const noexcept {
    return static_cast<unsigned>(slots.size());
  }
  [[nodiscard]] unsigned data_drives() const noexcept {
    return total_drives() - redundancy;
  }

  [[nodiscard]] GroupConfig clone() const;

  /// Throws ModelError when the configuration is unusable.
  void validate() const;
};

/// Build a homogeneous group: `total_drives` identical slots.
GroupConfig make_uniform_group(unsigned total_drives, unsigned redundancy,
                               const SlotModel& model,
                               double mission_hours = 87600.0);

/// Classification of a data-loss event (paper Fig. 4 states 3 and 5, plus
/// the stripe-collision refinement).
enum class DdfKind : std::uint8_t {
  kDoubleOperational,       ///< overlapping operational failures (state 5)
  kLatentThenOp,            ///< op failure while a latent defect is
                            ///< outstanding on a different drive (state 3)
  kLatentStripeCollision,   ///< defects sharing a stripe zone on more
                            ///< drives than the redundancy covers
};

/// One data-loss event in one simulated group history.
struct DdfEvent {
  double time = 0.0;
  DdfKind kind = DdfKind::kDoubleOperational;
};

const char* to_string(RebuildModel rebuild) noexcept;

}  // namespace raidrel::raid
