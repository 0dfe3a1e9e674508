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
// the DDF freeze and the state-1 clear (sim/group_simulator.h). Each op
// failure of a slot's first drive (the one installed at t = 0) also
// subtracts that slot's constant c_i, and RunResult adds back its known
// expectation: a mean-zero control variate that cancels most of the
// credits' count noise (docs/MODEL.md §19, "First-drive control variate").
#pragma once

#include <atomic>
#include <compare>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
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

/// Exact identity of one renewal table: the bits of the latent rate and of
/// the horizon (a solve that has not gone flat stops there), and the scrub
/// law's stats::Distribution::exact_key() (empty: never scrubbed).
struct LatentCurveKey {
  LatentCurveKey(double latent_rate, const stats::Distribution* scrub,
                 double horizon);

  std::uint64_t rate_bits;
  std::uint64_t horizon_bits;
  std::string scrub;

  auto operator<=>(const LatentCurveKey&) const = default;
};

/// Renewal tables shared across runs (docs/MODEL.md §19): one
/// analytic::LatentCurve per LatentCurveKey, built on the first request
/// and handed to every later one. A sweep owns one for all its cells and a
/// convergence call one for all its batches; none is process-global.
/// Thread-safe: concurrent requests for one key build it once, different
/// keys build in parallel, and no lock is held while a table is solved.
class LatentCurveCache {
 public:
  /// The table of an Exp(latent_rate) defect process cleared by `scrub`
  /// (null: never scrubbed) up to `horizon` hours.
  std::shared_ptr<const analytic::LatentCurve> get(
      double latent_rate, const stats::Distribution* scrub, double horizon);

  /// Tables built so far: one per distinct key.
  [[nodiscard]] std::size_t builds() const noexcept { return builds_.load(); }

 private:
  struct Entry {
    std::once_flag built;
    std::shared_ptr<const analytic::LatentCurve> curve;
  };

  std::mutex mutex_;  ///< guards the map only, never a solve
  std::map<LatentCurveKey, Entry> entries_;
  std::atomic<std::size_t> builds_{0};
};

/// One run's view of the tables its slots need: each distinct
/// (latent rate, scrub law) among the slots of some in-scope groups, taken
/// from a LatentCurveCache and shared read-only by every worker.
class LatentCurves {
 public:
  /// The tables of every slot of every group, each group in scope
  /// (latent_credit_exclusion == nullptr), from `cache` (null: a cache
  /// local to this call).
  explicit LatentCurves(std::span<const raid::GroupConfig* const> groups,
                        LatentCurveCache* cache = nullptr);

  /// The curve of one slot of a group passed to the constructor.
  [[nodiscard]] const analytic::LatentCurve& of(
      const raid::SlotModel& slot) const;
  [[nodiscard]] std::size_t size() const noexcept { return curves_.size(); }

 private:
  double horizon_ = 0.0;
  std::vector<
      std::pair<LatentCurveKey, std::shared_ptr<const analytic::LatentCurve>>>
      curves_;
};

/// Curves for `config` from `cache` (null: a local one) when it is in
/// scope, else null.
std::shared_ptr<const LatentCurves> latent_curves_for(
    const raid::GroupConfig& config,
    const std::optional<TiltSpec>& tilt = std::nullopt,
    LatentCurveCache* cache = nullptr);
/// Curves for the in-scope groups of a fleet (no tilt); null when none is.
std::shared_ptr<const LatentCurves> latent_curves_for(
    std::span<const raid::GroupConfig> groups,
    LatentCurveCache* cache = nullptr);

/// A latent credit rounded to the nearest multiple of 2^-26: the form in
/// which RunResult::add_trial folds credits, and in which
/// first_drive_constants returns its constants.
double quantize_credit(double p) noexcept;

/// First-drive control constants of an in-scope group, one per slot
/// (docs/MODEL.md §19): c_i = 1 - prod_{j != i} (1 - abar_j), rounded by
/// quantize_credit. abar_j is slot j's table averaged over the first
/// H = T / (1 + sum_j F_j(T)) hours (LatentCurve::mean_until), T the
/// mission and F_j slot j's op-law CDF: a censused failure resets every
/// partner's clock, so a failure typically sees partners clean for about
/// the mission over one plus its expected first-drive failures. c_i
/// stands in for the credit of slot i's first-drive failure; any constant
/// keeps the term mean-zero, this one sets how much noise it cancels.
std::vector<double> first_drive_constants(
    const raid::GroupConfig& config,
    std::span<const analytic::LatentCurve* const> slot_curves);

/// Expected first-drive term of one group-mission, per bucket of width
/// `bucket_hours` (RunResult's geometry): sum_i c_i (F_i(edge_b) -
/// F_i(edge_{b-1})), F_i slot i's op-law CDF, averaged over `groups`
/// (groups out of scope add 0). `curves` must cover every in-scope group;
/// each distinct op law's CDF is evaluated once per edge.
std::vector<double> first_drive_mean(std::span<const raid::GroupConfig> groups,
                                     const LatentCurves& curves,
                                     double bucket_hours);

}  // namespace raidrel::sim
