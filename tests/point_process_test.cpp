#include "stats/point_process.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/presets.h"
#include "rng/rng.h"
#include "sim/group_simulator.h"
#include "util/error.h"
#include "util/math.h"

namespace raidrel::stats {
namespace {

// Crow–AMSAA power-law NHPP with intensity (beta/eta) (t/eta)^(beta-1),
// simulated by time transform: unit-rate HPP events at cumulative values
// m_k map to t_k = eta * m_k^(1/beta). beta = 1 is the HPP.
struct PowerLawProcess {
  double eta;
  double beta;

  std::vector<double> simulate(double horizon, rng::RandomStream& rs) const {
    std::vector<double> out;
    double m = 0.0;
    const double m_end = std::pow(horizon / eta, beta);
    for (;;) {
      m += rs.exponential();
      if (m >= m_end) break;
      out.push_back(eta * std::pow(m, 1.0 / beta));
    }
    return out;
  }
};

std::vector<EventHistory> simulate_fleet(const PowerLawProcess& process,
                                         std::size_t systems, double horizon,
                                         std::uint64_t seed) {
  rng::StreamFactory streams(seed);
  std::vector<EventHistory> fleet;
  fleet.reserve(systems);
  for (std::size_t s = 0; s < systems; ++s) {
    auto rs = streams.stream(s);
    fleet.push_back({process.simulate(horizon, rs), horizon});
  }
  return fleet;
}

TEST(PowerLawFit, RecoversParametersFromFleet) {
  for (double beta : {0.7, 1.0, 1.6}) {
    const PowerLawProcess truth{800.0, beta};
    const auto fleet = simulate_fleet(truth, 400, 3000.0, 11);
    const auto fit = fit_power_law(fleet);
    ASSERT_TRUE(fit.converged) << beta;
    EXPECT_NEAR(fit.beta, beta, 0.08 * beta) << beta;
    EXPECT_NEAR(fit.eta, 800.0, 0.15 * 800.0) << beta;
  }
}

TEST(PowerLawFit, Validation) {
  EXPECT_THROW(fit_power_law({}), ModelError);
  std::vector<EventHistory> one = {{{5.0}, 10.0}};
  EXPECT_THROW(fit_power_law(one), ModelError);  // < 2 events
  std::vector<EventHistory> bad = {{{11.0, 5.0}, 10.0}};
  EXPECT_THROW(fit_power_law(bad), ModelError);  // event past the window
}

TEST(LaplaceTrend, CentersOnZeroUnderHpp) {
  const PowerLawProcess hpp{100.0, 1.0};
  // Across repeated experiments the statistic is ~N(0,1): check mean and
  // rejection rate.
  int rejects = 0;
  util::RunningStats stats;
  for (int e = 0; e < 120; ++e) {
    const auto fleet = simulate_fleet(hpp, 30, 1000.0, 100 + e);
    const auto t = laplace_trend_test(fleet);
    stats.add(t.statistic);
    if (t.p_value < 0.05) ++rejects;
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.35);
  EXPECT_LE(rejects, 15);  // ~5% nominal, generous band
}

TEST(LaplaceTrend, DetectsIncreasingRocof) {
  const PowerLawProcess growing{800.0, 1.6};
  const auto fleet = simulate_fleet(growing, 100, 3000.0, 21);
  const auto t = laplace_trend_test(fleet);
  EXPECT_GT(t.statistic, 3.0);   // strongly positive
  EXPECT_LT(t.p_value, 0.01);
}

TEST(LaplaceTrend, DetectsDecreasingRocof) {
  const PowerLawProcess improving{200.0, 0.6};
  const auto fleet = simulate_fleet(improving, 100, 3000.0, 22);
  const auto t = laplace_trend_test(fleet);
  EXPECT_LT(t.statistic, -3.0);
  EXPECT_LT(t.p_value, 0.01);
}

TEST(MilHdbkTrend, CalibratedUnderHpp) {
  const PowerLawProcess hpp{150.0, 1.0};
  const auto fleet = simulate_fleet(hpp, 200, 1500.0, 31);
  const auto t = mil_hdbk_trend_test(fleet);
  // Under H0 the statistic ~ chi2(2N): its CDF value is ~ Uniform(0,1),
  // so the one-sided p should not be extreme.
  EXPECT_GT(t.p_value_increasing, 0.001);
  EXPECT_LT(t.p_value_increasing, 0.999);
  EXPECT_EQ(t.dof, 2 * t.events);
}

TEST(MilHdbkTrend, FlagsWearOut) {
  const PowerLawProcess growing{800.0, 1.8};
  const auto fleet = simulate_fleet(growing, 100, 3000.0, 41);
  const auto t = mil_hdbk_trend_test(fleet);
  EXPECT_LT(t.p_value_increasing, 1e-4);
}

TEST(TrendOnSimulatedRaidGroups, DdfProcessIsNotHpp) {
  // The paper's thesis, as a hypothesis test: DDF event streams from the
  // base case (no scrub) reject the HPP null with an increasing trend,
  // and the fitted Crow-AMSAA beta exceeds 1.
  const auto cfg = core::presets::base_case_no_scrub().to_group_config();
  sim::GroupSimulator simulator(cfg);
  rng::StreamFactory streams(51);
  sim::TrialResult out;
  std::vector<EventHistory> fleet;
  for (std::uint64_t g = 0; g < 4000; ++g) {
    auto rs = streams.stream(g);
    simulator.run_trial(rs, out);
    EventHistory h;
    h.observation_end = cfg.mission_hours;
    for (const auto& ddf : out.ddfs) h.times.push_back(ddf.time);
    fleet.push_back(std::move(h));
  }
  const auto laplace = laplace_trend_test(fleet);
  EXPECT_GT(laplace.statistic, 3.0);
  EXPECT_LT(laplace.p_value, 0.01);
  const auto fit = fit_power_law(fleet);
  ASSERT_TRUE(fit.converged);
  EXPECT_GT(fit.beta, 1.05);
}

}  // namespace
}  // namespace raidrel::stats
