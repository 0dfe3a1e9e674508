// The double-op probe (docs/MODEL.md §4) is opt-in: RunOptions::
// double_op_probe records it, and off — the default — skips its per-failure
// hazard evaluations and Poisson-binomial census. The probe draws no random
// numbers, so every other output must be bit-identical with it on or off,
// on every engine: scalar, batched, fleet, importance-sampled and
// latent-credited. A result built without the probe must refuse probe
// queries loudly instead of reading as a zero estimate.
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/model.h"
#include "core/presets.h"
#include "rng/rng.h"
#include "sim/batch_engine.h"
#include "sim/fleet_simulator.h"
#include "sim/group_simulator.h"
#include "sim/latent_credit.h"
#include "sim/run_result.h"
#include "sim/runner.h"
#include "stats/weibull.h"
#include "util/error.h"

namespace raidrel::sim {
namespace {

// A 6-drive RAID-5 group busy enough that op failures overlap and
// defects are outstanding at many of them. The TTLd shape 1.2 keeps it on
// the event path (out of the latent-credit scope).
raid::GroupConfig busy_group() {
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 3000.0, 1.1);
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 100.0, 2.0);
  m.time_to_latent_defect =
      std::make_unique<stats::Weibull>(0.0, 2000.0, 1.2);
  m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, 300.0, 3.0);
  return raid::make_uniform_group(6, 1, m, 20000.0);
}

// 4-drive RAID-6 with exponential failures and rebuilds under an op-hazard
// tilt of 4: the importance-sampled rare-event regime.
raid::GroupConfig rare_raid6_group() {
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 5e4, 1.0);
  m.time_to_restore = std::make_unique<stats::Weibull>(0.0, 24.0, 1.0);
  return raid::make_uniform_group(4, 2, m, 10000.0);
}

// One aging group of a shared-spares fleet: exponential TTLd at
// redundancy 1, so every group is latent-credited.
raid::GroupConfig aging_group() {
  core::ScenarioConfig s;
  s.mission_hours = 21900.0;
  s.ttop = {0.0, 23000.0, 1.12};
  s.ttr = {6.0, 12.0, 2.0};
  s.ttld = stats::WeibullParams{0.0, 9259.0, 1.0};
  s.ttscrub = stats::WeibullParams{6.0, 168.0, 3.0};
  return s.to_group_config();
}

struct Case {
  const char* name;
  /// Runs the case single-threaded with the given probe flag.
  std::function<RunResult(bool probe)> run;
};

RunOptions options(std::size_t trials, std::size_t width, bool probe) {
  RunOptions opt{.trials = trials, .seed = 20070625, .threads = 1,
                 .bucket_hours = 1000.0};
  opt.batch_width = width;
  opt.double_op_probe = probe;
  return opt;
}

std::vector<Case> cases() {
  std::vector<Case> out;
  out.push_back({"scalar", [](bool probe) {
                   return run_monte_carlo(busy_group(),
                                          options(300, 1, probe));
                 }});
  out.push_back({"batched width 64", [](bool probe) {
                   return run_monte_carlo(busy_group(),
                                          options(300, 64, probe));
                 }});
  out.push_back({"50-group fleet", [](bool probe) {
                   FleetConfig fleet;
                   for (int g = 0; g < 50; ++g) {
                     fleet.groups.push_back(aging_group());
                   }
                   fleet.shared_pool = raid::SparePoolConfig{4, 168.0};
                   return run_fleet_monte_carlo(fleet, options(4, 1, probe));
                 }});
  out.push_back({"IS-tilted RAID-6", [](bool probe) {
                   RunOptions opt = options(3000, 64, probe);
                   opt.tilt = TiltSpec{4.0, 1.0};
                   return run_monte_carlo(rare_raid6_group(), opt);
                 }});
  out.push_back({"latent-credited base case", [](bool probe) {
                   const auto cfg =
                       core::presets::base_case().to_group_config();
                   EXPECT_EQ(latent_credit_exclusion(cfg), nullptr);
                   return run_monte_carlo(cfg, options(2000, 64, probe));
                 }});
  return out;
}

// Every output that does not read the probe, compared bit for bit.
void expect_same_non_probe(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.trials(), b.trials());
  EXPECT_EQ(a.op_failures(), b.op_failures());
  EXPECT_EQ(a.latent_defects(), b.latent_defects());
  EXPECT_EQ(a.scrubs_completed(), b.scrubs_completed());
  EXPECT_EQ(a.restores_completed(), b.restores_completed());
  EXPECT_EQ(a.spare_arrivals(), b.spare_arrivals());
  EXPECT_EQ(a.rocof_per_1000(), b.rocof_per_1000());
  EXPECT_EQ(a.cumulative_ddfs_per_1000(), b.cumulative_ddfs_per_1000());
  EXPECT_EQ(a.total_ddfs_per_1000(), b.total_ddfs_per_1000());
  EXPECT_EQ(a.total_ddfs_per_1000_sem(), b.total_ddfs_per_1000_sem());
  EXPECT_EQ(a.ddfs_per_1000_at(0.5 * a.mission_hours()),
            b.ddfs_per_1000_at(0.5 * b.mission_hours()));
  for (const auto kind : {raid::DdfKind::kDoubleOperational,
                          raid::DdfKind::kLatentThenOp,
                          raid::DdfKind::kLatentStripeCollision}) {
    EXPECT_EQ(a.total_per_1000(kind), b.total_per_1000(kind));
  }
  EXPECT_EQ(a.per_trial_ddfs().mean(), b.per_trial_ddfs().mean());
  EXPECT_EQ(a.per_trial_ddfs().variance(), b.per_trial_ddfs().variance());
  EXPECT_EQ(a.ess(), b.ess());
  EXPECT_EQ(a.weight_sum(), b.weight_sum());
  EXPECT_EQ(a.max_weight(), b.max_weight());
}

// `query` throws a ModelError whose message names the option.
void expect_refused(const std::function<void()>& query) {
  try {
    query();
    ADD_FAILURE() << "probe query on a probe-off result did not throw";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("RunOptions::double_op_probe"),
              std::string::npos)
        << e.what();
  }
}

void expect_probe_refused(const RunResult& r) {
  EXPECT_FALSE(r.double_op_probe());
  EXPECT_TRUE(r.rocof_per_1000(Estimator::kDoubleOpProbe).empty());
  EXPECT_TRUE(r.cumulative_ddfs_per_1000(Estimator::kDoubleOpProbe).empty());
  expect_refused(
      [&] { (void)r.total_ddfs_per_1000(Estimator::kDoubleOpProbe); });
  expect_refused([&] {
    (void)r.ddfs_per_1000_at(0.5 * r.mission_hours(),
                             Estimator::kDoubleOpProbe);
  });
}

TEST(DoubleOpProbeOptIn, NonProbeOutputsBitIdenticalOnEveryEngine) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const RunResult off = c.run(false);
    const RunResult on = c.run(true);
    ASSERT_GT(off.op_failures(), 0u);
    expect_same_non_probe(off, on);
    EXPECT_TRUE(on.double_op_probe());
    EXPECT_EQ(on.rocof_per_1000(Estimator::kDoubleOpProbe).size(),
              on.bucket_count());
    EXPECT_GT(on.total_ddfs_per_1000(Estimator::kDoubleOpProbe), 0.0);
    expect_probe_refused(off);
  }
}

TEST(DoubleOpProbeOptIn, EnginesLeaveTheProbeEmptyWhenOff) {
  const auto cfg = busy_group();
  const rng::StreamFactory streams(7);
  for (const bool probe : {false, true}) {
    SCOPED_TRACE(probe ? "on" : "off");
    std::size_t scalar_entries = 0;
    GroupSimulator scalar(cfg, KernelPolicy::kLowered, std::nullopt, nullptr,
                          probe);
    TrialResult out;
    for (std::uint64_t i = 0; i < 8; ++i) {
      auto rs = streams.stream(i);
      scalar.run_trial(rs, out);
      ASSERT_GT(out.op_failures, 0u);
      scalar_entries += out.double_op_probe.size();
    }
    EXPECT_EQ(scalar_entries > 0, probe);

    BatchGroupSimulator batch(cfg, 8, KernelPolicy::kLowered, std::nullopt,
                              MathTier::kExact, nullptr, probe);
    batch.run_lane(streams, 0, 8);
    std::size_t batch_entries = 0;
    for (std::size_t w = 0; w < 8; ++w) {
      batch_entries += batch.result(w).double_op_probe.size();
    }
    EXPECT_EQ(batch_entries, scalar_entries);

    FleetConfig fleet;
    fleet.groups.push_back(cfg.clone());
    fleet.groups.push_back(cfg.clone());
    FleetSimulator fleet_sim(fleet, KernelPolicy::kLowered, nullptr, probe);
    FleetTrialResult fleet_out;
    auto rs = streams.stream(0);
    fleet_sim.run_trial(rs, fleet_out);
    for (const TrialResult& g : fleet_out.per_group) {
      EXPECT_EQ(g.double_op_probe.empty(), !probe);
    }
  }
}

TEST(DoubleOpProbeOptIn, MergeRequiresEqualFlags) {
  RunResult on(1000.0, 100.0, /*double_op_probe=*/true);
  RunResult off(1000.0, 100.0);
  EXPECT_THROW(on.merge(off), ModelError);
  EXPECT_THROW(off.merge(on), ModelError);
  RunResult on2(1000.0, 100.0, /*double_op_probe=*/true);
  EXPECT_NO_THROW(on.merge(on2));
  RunResult off2(1000.0, 100.0);
  EXPECT_NO_THROW(off.merge(off2));
}

TEST(DoubleOpProbeOptIn, ProbeEntriesNeedAProbeResult) {
  TrialResult t;
  t.double_op_probe.emplace_back(50.0, 0.25);
  RunResult off(1000.0, 100.0);
  EXPECT_THROW(off.add_trial(t), ModelError);
  RunResult on(1000.0, 100.0, /*double_op_probe=*/true);
  on.add_trial(t);
  EXPECT_DOUBLE_EQ(on.total_ddfs_per_1000(Estimator::kDoubleOpProbe), 250.0);
}

TEST(DoubleOpProbeOptIn, ScenarioRatioRefusesAnUnrecordedProbe) {
  RunOptions opt{.trials = 200, .seed = 3, .threads = 1,
                 .bucket_hours = 730.0};
  const auto scenario =
      core::presets::fig6_variant(core::presets::Fig6Variant::kConstConst);
  const auto off = core::evaluate_scenario(scenario, opt);
  expect_refused(
      [&] { (void)off.ratio_vs_mttdl_at(87600.0, Estimator::kDoubleOpProbe); });
  EXPECT_NO_THROW((void)off.ratio_vs_mttdl_at(87600.0));
  opt.double_op_probe = true;
  const auto on = core::evaluate_scenario(scenario, opt);
  EXPECT_GT(on.ratio_vs_mttdl_at(87600.0, Estimator::kDoubleOpProbe), 0.0);
}

}  // namespace
}  // namespace raidrel::sim
