// The user-facing scenario description: the paper's Table 2 shape — four
// three-parameter Weibulls plus group geometry. This is the convenient 95%
// path; anything it cannot express (mixtures, per-slot laws, lognormal
// repairs) drops down to raid::GroupConfig directly, which the simulator
// consumes natively.
#pragma once

#include <optional>
#include <string>

#include "raid/group_config.h"
#include "stats/weibull.h"

namespace raidrel::core {

struct ScenarioConfig {
  std::string name = "scenario";

  unsigned group_drives = 8;   ///< paper: 7 data + 1 parity
  unsigned redundancy = 1;     ///< check drives m (1 = RAID5-style, 2 =
                               ///< RAID6-style, m >= 3 = erasure codes)
  double mission_hours = 87600.0;

  /// Rebuild placement model (raid::RebuildModel): the paper's dedicated
  /// spare (default) or declustered placement, where the effective
  /// restore time scales with the surviving-source count.
  raid::RebuildModel rebuild = raid::RebuildModel::kDedicatedSpare;

  /// Time to operational failure, d_Op (Table 2 base case).
  stats::WeibullParams ttop{0.0, 461386.0, 1.12};
  /// Time to restore, d_Restore (6 h minimum, 12 h characteristic).
  stats::WeibullParams ttr{6.0, 12.0, 2.0};
  /// Time to latent defect, d_Ld; disabled when absent.
  std::optional<stats::WeibullParams> ttld;
  /// Time to scrub, d_Scrub; disabled when absent (defects persist until
  /// the drive itself is replaced).
  std::optional<stats::WeibullParams> ttscrub;

  /// Importance-sampling hazard tilts (docs/MODEL.md §13). These describe
  /// HOW the scenario is estimated, not WHAT is modeled: the group
  /// configuration and its digest are unaffected, and any estimator built
  /// from a tilted run converges to the same answer as an untilted one.
  /// 1.0 (the default) leaves the corresponding law untouched.
  double op_tilt = 1.0;  ///< hazard scale on exposure-window TTOp redraws
  double ld_tilt = 1.0;  ///< retired latent tilt: must stay 1.0

  /// Materialize into the engine-level configuration.
  [[nodiscard]] raid::GroupConfig to_group_config() const;

  /// One-line summary for report headers.
  [[nodiscard]] std::string summary() const;
};

}  // namespace raidrel::core
