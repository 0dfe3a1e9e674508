// Fleet simulation: many RAID groups sharing one spare pool.
//
// The paper models a single group and assumes a spare is always on hand.
// Real deployments stock a handful of spares per rack or datacenter and
// share them across many groups; a failure burst can starve the pool and
// leave several groups critically exposed at once — correlated risk that
// no per-group model can express. FleetSimulator runs all groups in one
// event loop with a common pool (capacity + replenishment lead time,
// FIFO service across groups).
//
// Every group runs on GroupSimulator's own handlers (sim::detail::GroupCore:
// fault census, freeze windows, latent-defect renewal per
// raid::LatentClock, state-1 defect wipe, declustered rebuild, stripe zones
// and the opt-in double-op probe) inside the same event loop; only
// the spare pool is shared. The next event is the earliest of the groups'
// cached minima, found through a tournament tree over the group indices
// (detail::GroupTournament): on a tie the lowest group, then its lowest
// slot, goes first, and a spare arrival at the same instant goes before
// both. Waiting drives are served FIFO across groups. A fleet of one
// group with no shared pool therefore reproduces GroupSimulator draw for
// draw. The probe does not see the wait for a
// spare, so under a starved pool it understates (docs/MODEL.md §18).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "obs/trace.h"
#include "raid/group_config.h"
#include "rng/rng.h"
#include "sim/group_simulator.h"

namespace raidrel::sim {

struct FleetConfig {
  /// One entry per RAID group. All groups must share the mission length and
  /// must not carry their own spare pools (the fleet's pool is
  /// `shared_pool`).
  std::vector<raid::GroupConfig> groups;

  /// Spares stocked for the whole fleet; absent = always available.
  std::optional<raid::SparePoolConfig> shared_pool;

  void validate() const;
  [[nodiscard]] double mission_hours() const;
};

struct FleetTrialResult {
  std::vector<TrialResult> per_group;

  [[nodiscard]] std::size_t total_ddfs() const;
  void clear(std::size_t groups);
};

class FleetSimulator {
 public:
  /// `policy` selects between the compiled sampling kernels (default) and
  /// the reference virtual-dispatch path; both produce bit-identical event
  /// histories (see slot_kernel.h). Groups in the latent-credit scope run
  /// credited (sim/latent_credit.h); `curves` shares a run's tables, null
  /// builds them here. `double_op_probe` records every group's
  /// TrialResult::double_op_probe, as in GroupSimulator.
  explicit FleetSimulator(const FleetConfig& config,
                          KernelPolicy policy = KernelPolicy::kLowered,
                          std::shared_ptr<const LatentCurves> curves = nullptr,
                          bool double_op_probe = false);

  /// Simulate one mission of the whole fleet. A non-null `trace` is
  /// cleared and receives every dispatched event in processing order with
  /// its group index (see obs/trace.h); tracing consumes no random draws.
  void run_trial(rng::RandomStream& rs, FleetTrialResult& out,
                 obs::TrialTrace* trace = nullptr);

  /// Drives still blocked on the pool when the last trial ended — the
  /// backlog signal that tells saturation ("the pool can never catch up")
  /// apart from transient burst starvation.
  [[nodiscard]] std::size_t waiting_drives_at_end() const noexcept;

 private:
  std::shared_ptr<const LatentCurves> curves_;
  std::vector<detail::GroupCore> cores_;
  detail::SparePool pool_;
  detail::GroupTournament tree_;
};

}  // namespace raidrel::sim
