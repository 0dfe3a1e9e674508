#include "stats/piecewise.h"

#include <cmath>

#include <gtest/gtest.h>

#include "stats/weibull.h"
#include "util/error.h"
#include "util/math.h"
#include "workload/duty_cycle.h"

namespace raidrel::stats {
namespace {

PiecewiseConstantHazard two_phase() {
  // 0.01/h for 100 h, then 0.001/h.
  return PiecewiseConstantHazard({{0.0, 0.01}, {100.0, 0.001}});
}

TEST(PiecewiseHazard, SingleSegmentIsExponential) {
  const PiecewiseConstantHazard p({{0.0, 0.02}});
  const Weibull e(0.0, 50.0, 1.0);  // Exp(rate 0.02)
  for (double t : {1.0, 50.0, 300.0}) {
    EXPECT_NEAR(p.cdf(t), e.cdf(t), 1e-12) << t;
    EXPECT_NEAR(p.pdf(t), e.pdf(t), 1e-12) << t;
    EXPECT_DOUBLE_EQ(p.hazard(t), 0.02);
  }
}

TEST(PiecewiseHazard, HazardStepsAtBreakpoints) {
  const auto p = two_phase();
  EXPECT_DOUBLE_EQ(p.hazard(99.9), 0.01);
  EXPECT_DOUBLE_EQ(p.hazard(100.0), 0.001);
  EXPECT_DOUBLE_EQ(p.hazard(1e6), 0.001);
}

TEST(PiecewiseHazard, CumHazardPiecewiseLinear) {
  const auto p = two_phase();
  EXPECT_NEAR(p.cum_hazard(50.0), 0.5, 1e-12);
  EXPECT_NEAR(p.cum_hazard(100.0), 1.0, 1e-12);
  EXPECT_NEAR(p.cum_hazard(300.0), 1.0 + 0.2, 1e-12);
  EXPECT_NEAR(p.survival(300.0), std::exp(-1.2), 1e-12);
}

TEST(PiecewiseHazard, QuantileInvertsCdf) {
  const auto p = two_phase();
  for (double prob : {0.01, 0.3, 0.632, 0.8, 0.99}) {
    EXPECT_NEAR(p.cdf(p.quantile(prob)), prob, 1e-10) << prob;
  }
}

TEST(PiecewiseHazard, InverseCumHazardCrossesSegments) {
  const auto p = two_phase();
  EXPECT_NEAR(p.inverse_cum_hazard(0.5), 50.0, 1e-9);
  EXPECT_NEAR(p.inverse_cum_hazard(1.0), 100.0, 1e-9);
  EXPECT_NEAR(p.inverse_cum_hazard(1.1), 200.0, 1e-9);
}

TEST(PiecewiseHazard, ZeroRateLeadingSegment) {
  // No defects possible while idle, then a constant rate.
  const PiecewiseConstantHazard p({{0.0, 0.0}, {100.0, 0.01}});
  EXPECT_DOUBLE_EQ(p.cdf(100.0), 0.0);
  EXPECT_GT(p.cdf(150.0), 0.0);
  rng::RandomStream rs(1);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GE(p.sample(rs), 100.0);
  }
}

TEST(PiecewiseHazard, SampleCountsMatchRatePerPhase) {
  // Use the law as a renewal-process generator: event counts inside each
  // phase must match the phase intensity.
  const auto p = two_phase();
  rng::RandomStream rs(2);
  int early = 0, late = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double t = p.sample(rs);
    if (t < 100.0) {
      ++early;
    } else {
      ++late;
    }
  }
  // P(T < 100) = 1 - exp(-1).
  EXPECT_NEAR(static_cast<double>(early) / n, 1.0 - std::exp(-1.0), 0.006);
  EXPECT_EQ(early + late, n);
}

TEST(PiecewiseHazard, ResidualSamplingUsesCurrentPhase) {
  const auto p = two_phase();
  rng::RandomStream rs(3);
  // Past the breakpoint the law is memoryless at the low rate.
  util::RunningStats residual;
  for (int i = 0; i < 50000; ++i) {
    residual.add(p.sample_residual(200.0, rs));
  }
  EXPECT_NEAR(residual.mean(), 1000.0, 15.0);
}

TEST(PiecewiseHazard, Validation) {
  using Seg = PiecewiseConstantHazard::Segment;
  EXPECT_THROW(PiecewiseConstantHazard({}), ModelError);
  EXPECT_THROW(PiecewiseConstantHazard({Seg{5.0, 0.1}}), ModelError);
  EXPECT_THROW(PiecewiseConstantHazard({Seg{0.0, 0.1}, Seg{0.0, 0.2}}),
               ModelError);
  EXPECT_THROW(PiecewiseConstantHazard({Seg{0.0, -0.1}}), ModelError);
  EXPECT_THROW(PiecewiseConstantHazard({Seg{0.0, 0.0}}), ModelError);
}

TEST(DutyCycle, ProfileToLatentLaw) {
  const auto profile = workload::ingest_then_archive_profile();
  const auto law = workload::ttld_from_profile(profile, 8.0e-14);
  // Ingest phase: 8e-14 * 1.35e10 = 1.08e-3/h; archive: 1.08e-4/h.
  EXPECT_NEAR(law.hazard(1000.0), 1.08e-3, 1e-9);
  EXPECT_NEAR(law.hazard(20000.0), 1.08e-4, 1e-10);
}

TEST(DutyCycle, AverageVolumeWeightsPhases) {
  const auto profile = workload::ingest_then_archive_profile();
  // One year at 1.35e10 + nine at 1.35e9, averaged over ten years.
  const double avg = profile.average_bytes_per_hour(87600.0);
  EXPECT_NEAR(avg, (1.35e10 * 8760.0 + 1.35e9 * 78840.0) / 87600.0,
              1e-3 * avg);
}

TEST(DutyCycle, ProfileValidation) {
  workload::DutyCycleProfile bad{"bad", {{"p", 10.0, 1.0}}};
  EXPECT_THROW(bad.validate(), ModelError);
  workload::DutyCycleProfile zero{"zero", {{"p", 0.0, 0.0}}};
  EXPECT_THROW(zero.validate(), ModelError);
  EXPECT_THROW(workload::steady_profile(0.0), ModelError);
}

}  // namespace
}  // namespace raidrel::stats
