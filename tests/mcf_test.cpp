#include "field/mcf.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/presets.h"
#include "sim/group_simulator.h"
#include "stats/weibull.h"
#include "util/error.h"

namespace raidrel::field {
namespace {

TEST(Mcf, HandWorkedExample) {
  // Three systems: A events at {5, 12}, observed to 20; B event at {8},
  // observed to 10; C no events, observed to 15.
  std::vector<SystemHistory> h = {
      {{5.0, 12.0}, 20.0}, {{8.0}, 10.0}, {{}, 15.0}};
  MeanCumulativeFunction mcf(h);
  // t=5: 3 at risk -> 1/3. t=8: 3 at risk -> +1/3. B censors at 10.
  // t=12: 2 at risk -> +1/2.
  EXPECT_DOUBLE_EQ(mcf.value(4.9), 0.0);
  EXPECT_NEAR(mcf.value(5.0), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(mcf.value(8.0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(mcf.value(11.0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(mcf.value(12.0), 2.0 / 3.0 + 0.5, 1e-12);
  EXPECT_NEAR(mcf.value(100.0), 2.0 / 3.0 + 0.5, 1e-12);
  EXPECT_EQ(mcf.system_count(), 3u);
}

TEST(Mcf, EventAtCensoringTimeCounts) {
  // An event exactly at a (different system's) censoring time sees the
  // full risk set; an event at its own end is still in-window.
  std::vector<SystemHistory> h = {{{10.0}, 10.0}, {{}, 10.0}};
  MeanCumulativeFunction mcf(h);
  EXPECT_NEAR(mcf.value(10.0), 0.5, 1e-12);
}

TEST(Mcf, EqualWindowsIsMeanCountingProcess) {
  // All systems observed over the same window: MCF(t) = (total events <=
  // t) / n.
  std::vector<SystemHistory> h = {
      {{1.0, 2.0, 3.0}, 10.0}, {{2.5}, 10.0}, {{}, 10.0}, {{9.0}, 10.0}};
  MeanCumulativeFunction mcf(h);
  EXPECT_NEAR(mcf.value(2.6), 3.0 / 4.0, 1e-12);
  EXPECT_NEAR(mcf.value(10.0), 5.0 / 4.0, 1e-12);
}

TEST(Mcf, RecoversHppRate) {
  // Poisson events at rate 0.01/h on 500 systems: MCF(t) ~ 0.01 t and the
  // empirical ROCOF is flat.
  rng::RandomStream rs(3);
  const stats::Weibull gap(0.0, 100.0, 1.0);  // Exp(rate 0.01)
  std::vector<SystemHistory> h;
  for (int s = 0; s < 500; ++s) {
    SystemHistory sys;
    sys.observation_end = 1000.0;
    double t = gap.sample(rs);
    while (t <= 1000.0) {
      sys.event_times.push_back(t);
      t += gap.sample(rs);
    }
    h.push_back(std::move(sys));
  }
  MeanCumulativeFunction mcf(h);
  EXPECT_NEAR(mcf.value(500.0), 5.0, 0.35);
  EXPECT_NEAR(mcf.value(1000.0), 10.0, 0.5);
  const double early = mcf.rocof(0.0, 500.0);
  const double late = mcf.rocof(500.0, 1000.0);
  EXPECT_NEAR(early / late, 1.0, 0.1);  // flat: HPP
}

TEST(Mcf, VarianceShrinksWithPopulation) {
  rng::RandomStream rs(4);
  const stats::Weibull gap(0.0, 50.0, 1.0);  // Exp(rate 0.02)
  auto build = [&](int n) {
    std::vector<SystemHistory> h;
    for (int s = 0; s < n; ++s) {
      SystemHistory sys;
      sys.observation_end = 500.0;
      double t = gap.sample(rs);
      while (t <= 500.0) {
        sys.event_times.push_back(t);
        t += gap.sample(rs);
      }
      h.push_back(std::move(sys));
    }
    return MeanCumulativeFunction(h);
  };
  const auto small = build(50);
  const auto large = build(5000);
  EXPECT_GT(small.variance(500.0), large.variance(500.0));
}

TEST(Mcf, DetectsIncreasingRocofOfSimulatedRaidGroups) {
  // Feed real simulator output (the paper's base case without scrub) into
  // the field-analysis tool: the MCF must curve upward — the Fig. 8
  // observation made with the Trindade–Nathan plot itself.
  const auto cfg = core::presets::base_case_no_scrub().to_group_config();
  sim::GroupSimulator simulator(cfg);
  rng::StreamFactory streams(11);
  sim::TrialResult out;
  std::vector<SystemHistory> h;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    auto rs = streams.stream(i);
    simulator.run_trial(rs, out);
    SystemHistory sys;
    sys.observation_end = cfg.mission_hours;
    for (const auto& ddf : out.ddfs) sys.event_times.push_back(ddf.time);
    h.push_back(std::move(sys));
  }
  MeanCumulativeFunction mcf(h);
  const double early = mcf.rocof(0.0, 29200.0);
  const double late = mcf.rocof(58400.0, 87600.0);
  EXPECT_GT(late, 1.15 * early);
}

TEST(Mcf, Validation) {
  EXPECT_THROW(MeanCumulativeFunction(std::vector<SystemHistory>{}),
               ModelError);
  std::vector<SystemHistory> bad = {{{5.0}, 3.0}};  // event past the window
  EXPECT_THROW(MeanCumulativeFunction{bad}, ModelError);
  std::vector<SystemHistory> ok = {{{1.0}, 3.0}};
  MeanCumulativeFunction mcf(ok);
  EXPECT_THROW(static_cast<void>(mcf.rocof(5.0, 5.0)), ModelError);
}

}  // namespace
}  // namespace raidrel::field
