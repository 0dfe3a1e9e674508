#include "sweep/sweep_spec.h"

#include "sim/runner.h"
#include "util/error.h"
#include "util/strings.h"
#include "workload/read_errors.h"

namespace raidrel::sweep {

namespace {

std::string number_label(double v) {
  // Compact but unambiguous labels: integers print bare ("168"),
  // fractional values keep their general formatting.
  if (v == static_cast<double>(static_cast<long long>(v))) {
    return std::to_string(static_cast<long long>(v));
  }
  return util::format_general(v, 6);
}

}  // namespace

SweepSpec::SweepSpec(std::string name, core::ScenarioConfig base)
    : name_(std::move(name)), base_(std::move(base)) {
  RAIDREL_REQUIRE(!name_.empty(), "sweep name must not be empty");
}

SweepSpec& SweepSpec::add_axis(Axis axis) {
  RAIDREL_REQUIRE(!axis.name.empty(), "axis name must not be empty");
  RAIDREL_REQUIRE(!axis.points.empty(), "axis needs at least one point");
  for (const auto& existing : axes_) {
    RAIDREL_REQUIRE(existing.name != axis.name,
                    "duplicate axis name in sweep spec");
  }
  for (const auto& p : axis.points) {
    RAIDREL_REQUIRE(!p.label.empty() && p.apply != nullptr,
                    "axis points need a label and an apply function");
  }
  axes_.push_back(std::move(axis));
  return *this;
}

SweepSpec& SweepSpec::add_scrub_period_axis(
    const std::vector<double>& eta_hours, bool include_no_scrub) {
  Axis axis{"scrub", {}};
  if (include_no_scrub) {
    axis.points.push_back(
        {"none", [](core::ScenarioConfig& s) { s.ttscrub.reset(); }});
  }
  for (const double eta : eta_hours) {
    RAIDREL_REQUIRE(eta > 0.0, "scrub period must be positive");
    axis.points.push_back({number_label(eta), [eta](core::ScenarioConfig& s) {
                             RAIDREL_REQUIRE(
                                 s.ttscrub.has_value(),
                                 "scrub axis needs a base scrub law");
                             s.ttscrub->eta = eta;
                           }});
  }
  return add_axis(std::move(axis));
}

SweepSpec& SweepSpec::add_restore_eta_axis(
    const std::vector<double>& eta_hours) {
  Axis axis{"restore", {}};
  for (const double eta : eta_hours) {
    RAIDREL_REQUIRE(eta > 0.0, "restore eta must be positive");
    axis.points.push_back({number_label(eta), [eta](core::ScenarioConfig& s) {
                             s.ttr.eta = eta;
                           }});
  }
  return add_axis(std::move(axis));
}

SweepSpec& SweepSpec::add_op_law_axis(
    const std::vector<std::pair<std::string, stats::WeibullParams>>& laws) {
  Axis axis{"op-law", {}};
  for (const auto& [label, params] : laws) {
    axis.points.push_back({label, [params](core::ScenarioConfig& s) {
                             s.ttop = params;
                           }});
  }
  return add_axis(std::move(axis));
}

SweepSpec& SweepSpec::add_latent_rate_axis(
    const std::vector<std::pair<std::string, double>>& rates_per_hour) {
  Axis axis{"latent-rate", {}};
  for (const auto& [label, rate] : rates_per_hour) {
    RAIDREL_REQUIRE(rate > 0.0, "latent-defect rate must be positive");
    axis.points.push_back({label, [rate](core::ScenarioConfig& s) {
                             s.ttld = stats::WeibullParams{0.0, 1.0 / rate,
                                                           1.0};
                           }});
  }
  return add_axis(std::move(axis));
}

SweepSpec& SweepSpec::add_table1_latent_axis() {
  std::vector<std::pair<std::string, double>> rates;
  for (const auto& cell : workload::table1_grid()) {
    // "Med/Low Rate" style labels; Table 1's row x column identity.
    rates.emplace_back(cell.rer_label + "/" + cell.rate_label,
                       cell.errors_per_hour);
  }
  return add_latent_rate_axis(rates);
}

SweepSpec& SweepSpec::add_group_size_axis(
    const std::vector<unsigned>& total_drives) {
  Axis axis{"group", {}};
  for (const unsigned n : total_drives) {
    RAIDREL_REQUIRE(n >= 2, "group needs at least two drives");
    axis.points.push_back({std::to_string(n), [n](core::ScenarioConfig& s) {
                             s.group_drives = n;
                           }});
  }
  return add_axis(std::move(axis));
}

SweepSpec& SweepSpec::add_redundancy_axis(
    const std::vector<unsigned>& redundancies) {
  Axis axis{"redundancy", {}};
  for (const unsigned m : redundancies) {
    RAIDREL_REQUIRE(m >= 1, "redundancy must be at least 1 check drive");
    axis.points.push_back({std::to_string(m), [m](core::ScenarioConfig& s) {
                             s.redundancy = m;
                           }});
  }
  return add_axis(std::move(axis));
}

SweepSpec& SweepSpec::add_rebuild_model_axis(
    const std::vector<raid::RebuildModel>& models) {
  Axis axis{"rebuild", {}};
  for (const raid::RebuildModel model : models) {
    axis.points.push_back(
        {raid::to_string(model), [model](core::ScenarioConfig& s) {
           s.rebuild = model;
         }});
  }
  return add_axis(std::move(axis));
}

SweepSpec& SweepSpec::add_op_tilt_axis(const std::vector<double>& thetas) {
  Axis axis{"op-tilt", {}};
  for (const double theta : thetas) {
    RAIDREL_REQUIRE(theta > 0.0, "tilt must be positive");
    axis.points.push_back({number_label(theta),
                           [theta](core::ScenarioConfig& s) {
                             s.op_tilt = theta;
                           }});
  }
  return add_axis(std::move(axis));
}

std::size_t SweepSpec::cell_count() const noexcept {
  std::size_t n = 1;
  for (const auto& axis : axes_) n *= axis.points.size();
  return n;
}

std::vector<SweepCell> SweepSpec::expand() const {
  const std::size_t total = cell_count();
  std::vector<SweepCell> cells;
  cells.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    SweepCell cell;
    cell.index = i;
    cell.scenario = base_;
    // Mixed-radix decomposition of i, last axis fastest.
    std::size_t rem = i;
    std::size_t radix = total;
    for (const auto& axis : axes_) {
      radix /= axis.points.size();
      const std::size_t digit = rem / radix;
      rem %= radix;
      const AxisPoint& point = axis.points[digit];
      point.apply(cell.scenario);
      cell.coordinates.emplace_back(axis.name, point.label);
      if (!cell.label.empty()) cell.label += ' ';
      cell.label += axis.name + "=" + point.label;
    }
    if (cell.label.empty()) cell.label = "base";
    cell.scenario.name = name_ + "/" + cell.label;
    cell.config_digest = sim::config_digest(cell.scenario.to_group_config());
    cells.push_back(std::move(cell));
  }
  return cells;
}

}  // namespace raidrel::sweep
