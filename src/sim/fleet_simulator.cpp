#include "sim/fleet_simulator.h"

#include "util/error.h"

namespace raidrel::sim {

void FleetConfig::validate() const {
  RAIDREL_REQUIRE(!groups.empty(), "fleet needs at least one group");
  const double mission = groups.front().mission_hours;
  for (const auto& g : groups) {
    g.validate();
    RAIDREL_REQUIRE(g.mission_hours == mission,
                    "all groups must share the mission length");
    RAIDREL_REQUIRE(!g.spare_pool.has_value(),
                    "per-group pools are a GroupSimulator feature; the "
                    "fleet pool is FleetConfig::shared_pool");
  }
  if (shared_pool) {
    RAIDREL_REQUIRE(shared_pool->capacity >= 1,
                    "shared pool needs at least one spare");
    RAIDREL_REQUIRE(shared_pool->replenish_hours > 0.0,
                    "replenishment lead time must be positive");
  }
}

double FleetConfig::mission_hours() const {
  RAIDREL_REQUIRE(!groups.empty(), "fleet needs at least one group");
  return groups.front().mission_hours;
}

std::size_t FleetTrialResult::total_ddfs() const {
  std::size_t n = 0;
  for (const auto& g : per_group) n += g.ddfs.size();
  return n;
}

void FleetTrialResult::clear(std::size_t groups) {
  per_group.resize(groups);
  for (auto& g : per_group) g.clear();
}

FleetSimulator::FleetSimulator(const FleetConfig& config, KernelPolicy policy,
                               std::shared_ptr<const LatentCurves> curves,
                               bool double_op_probe)
    : pool_(config.shared_pool), tree_(config.groups.size()) {
  config.validate();
  curves_ = curves ? std::move(curves) : latent_curves_for(config.groups);
  cores_.reserve(config.groups.size());
  for (const auto& group : config.groups) {
    cores_.emplace_back(group, policy, std::nullopt, curves_.get(),
                        double_op_probe);
  }
}

std::size_t FleetSimulator::waiting_drives_at_end() const noexcept {
  return pool_.waiting();
}

void FleetSimulator::run_trial(rng::RandomStream& rs, FleetTrialResult& out,
                               obs::TrialTrace* trace) {
  out.clear(cores_.size());
  detail::run_missions(cores_, pool_, tree_, rs, out.per_group, trace);
}

}  // namespace raidrel::sim
