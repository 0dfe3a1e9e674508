// Latent-credit estimator: scope predicate and the shared A(tau) tables
// (docs/MODEL.md §19).
//
// At redundancy 1 with an exponential TTLd, latent state matters only at
// operational-failure instants, and each drive's latent process restarts
// "up" whenever it is seen clean. The group engine then stops simulating
// defect and scrub events: every slot keeps only the instant s_j since
// which its latent state is unobserved, and at each censused op failure
// the engine credits P = 1 - prod_j (1 - A_j(t - s_j)) to the run's
// counting and latent-then-op series, then draws Bernoulli(P) to drive
// the DDF freeze and the state-1 clear (sim/group_simulator.h).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analytic/latent_curve.h"
#include "raid/group_config.h"
#include "sim/slot_kernel.h"

namespace raidrel::sim {

/// Why `config` (run with `tilt`) must stay on the event path; nullptr
/// when the latent-credit estimator applies. In scope: every slot's TTLd
/// is a stats::Weibull with beta = 1 and gamma = 0, redundancy 1, no
/// stripe zones, no reconstruction defects, defects cleared on the
/// restore that ends a DDF, and no engaged tilt. Reads the configuration
/// only — never the lowered kernels — so KernelPolicy cannot change the
/// path.
const char* latent_credit_exclusion(const raid::GroupConfig& config,
                                    const std::optional<TiltSpec>& tilt =
                                        std::nullopt) noexcept;

/// Estimator names as recorded in manifests and sweep cells.
inline constexpr const char* kEventsEstimator = "events";
inline constexpr const char* kLatentCreditEstimator = "latent-credit";

/// One analytic::LatentCurve per distinct (latent rate, scrub law) among
/// the slots of some in-scope groups, built once and shared read-only by
/// every worker of a run.
class LatentCurves {
 public:
  /// Tabulate the curves of every slot of every group; each group must be
  /// in scope (latent_credit_exclusion == nullptr).
  explicit LatentCurves(std::span<const raid::GroupConfig* const> groups);

  /// The curve of one slot of a group passed to the constructor.
  [[nodiscard]] const analytic::LatentCurve& of(
      const raid::SlotModel& slot) const;
  [[nodiscard]] std::size_t size() const noexcept { return curves_.size(); }

 private:
  /// (latent rate, scrub law description) -> curve.
  std::vector<std::pair<std::pair<double, std::string>,
                        std::unique_ptr<analytic::LatentCurve>>>
      curves_;
};

/// Curves for `config` when it is in scope, else null.
std::shared_ptr<const LatentCurves> latent_curves_for(
    const raid::GroupConfig& config,
    const std::optional<TiltSpec>& tilt = std::nullopt);
/// Curves for the in-scope groups of a fleet (no tilt); null when none is.
std::shared_ptr<const LatentCurves> latent_curves_for(
    std::span<const raid::GroupConfig> groups);

}  // namespace raidrel::sim
