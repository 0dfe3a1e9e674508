// Declarative parameter sweeps over scenarios.
//
// The paper's payoff is its sensitivity studies — Table 3 and the figure
// sweeps vary scrub period, restore time, latent-defect rate and disk
// vintage to show where MTTDL mispredicts by orders of magnitude. A
// SweepSpec declares those parameter axes once, over a base
// core::ScenarioConfig, and expands them into a deterministic list of
// cells (the Cartesian product, row-major with the last-added axis
// varying fastest). Each cell carries the materialized scenario and its
// sim::config_digest, which is what the sweep runner's result cache keys
// on (see sweep_runner.h).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.h"
#include "stats/weibull.h"

namespace raidrel::sweep {

/// One value along one axis: a display label and the mutation it applies
/// to the scenario. Mutations must be deterministic functions of the
/// scenario (no hidden state) so a spec expands identically everywhere.
struct AxisPoint {
  std::string label;
  std::function<void(core::ScenarioConfig&)> apply;
};

/// A named parameter axis.
struct Axis {
  std::string name;
  std::vector<AxisPoint> points;
};

/// One expanded cell of a sweep.
struct SweepCell {
  std::size_t index = 0;   ///< position in expansion order
  std::string label;       ///< "scrub=168 restore=12"
  /// (axis name, point label) pairs, in axis-declaration order.
  std::vector<std::pair<std::string, std::string>> coordinates;
  core::ScenarioConfig scenario;
  std::uint64_t config_digest = 0;  ///< sim::config_digest of the group
};

/// Declares axes and expands them into cells.
class SweepSpec {
 public:
  SweepSpec(std::string name, core::ScenarioConfig base);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const core::ScenarioConfig& base() const noexcept {
    return base_;
  }
  [[nodiscard]] const std::vector<Axis>& axes() const noexcept {
    return axes_;
  }

  /// Generic axis; name must be unique within the spec, points non-empty.
  SweepSpec& add_axis(Axis axis);

  // Named axes for the paper's studies.

  /// Scrub characteristic duration (eta of TTScrub, location/shape kept
  /// from the base). `include_no_scrub` prepends a "none" point that
  /// disables scrubbing entirely (Table 3's worst row).
  SweepSpec& add_scrub_period_axis(const std::vector<double>& eta_hours,
                                   bool include_no_scrub = false);

  /// Restore characteristic duration (eta of TTR).
  SweepSpec& add_restore_eta_axis(const std::vector<double>& eta_hours);

  /// Operational-failure laws, e.g. the Fig. 2 vintages.
  SweepSpec& add_op_law_axis(
      const std::vector<std::pair<std::string, stats::WeibullParams>>& laws);

  /// Latent-defect hourly rates: TTLd becomes exponential with
  /// eta = 1/rate (the paper's beta = 1 convention).
  SweepSpec& add_latent_rate_axis(
      const std::vector<std::pair<std::string, double>>& rates_per_hour);

  /// The full Table 1 grid: 3 RER levels x 2 read rates = 6 points.
  SweepSpec& add_table1_latent_axis();

  /// Group width at fixed redundancy.
  SweepSpec& add_group_size_axis(const std::vector<unsigned>& total_drives);

  /// Check-drive count m at fixed group width (1 = RAID5, 2 = RAID6,
  /// m >= 3 = general erasure codes).
  SweepSpec& add_redundancy_axis(const std::vector<unsigned>& redundancies);

  /// Rebuild placement model: dedicated spare vs. declustered (see
  /// raid::RebuildModel). Declustered cells digest differently, so the two
  /// points never collide in the result cache.
  SweepSpec& add_rebuild_model_axis(
      const std::vector<raid::RebuildModel>& models);

  /// Importance-sampling tilt on the operational-failure hazard
  /// (docs/MODEL.md §13). An *estimation* axis, not a model axis: every
  /// point targets the same quantity and leaves the config digest
  /// untouched, differing only in proposal strength — useful for tuning
  /// the tilt of a rare-event study or validating tilted against plain
  /// estimates cell by cell. Cells are cache-keyed by tilt, so points
  /// never collide despite sharing a digest.
  SweepSpec& add_op_tilt_axis(const std::vector<double>& thetas);

  /// Number of cells the spec expands to (product of axis sizes; 1 when no
  /// axis was added — the base scenario alone).
  [[nodiscard]] std::size_t cell_count() const noexcept;

  /// Deterministic expansion: cell i applies, for each axis in declaration
  /// order, the point selected by the mixed-radix decomposition of i with
  /// the last axis varying fastest. Digests are computed on the
  /// materialized raid::GroupConfig.
  [[nodiscard]] std::vector<SweepCell> expand() const;

 private:
  std::string name_;
  core::ScenarioConfig base_;
  std::vector<Axis> axes_;
};

}  // namespace raidrel::sweep
