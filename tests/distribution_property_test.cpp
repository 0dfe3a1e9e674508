// Parameterized property suite: every Distribution implementation must
// satisfy the axioms the simulator relies on, whatever its parameters.
#include <cmath>
#include <functional>
#include <memory>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "stats/basic_distributions.h"
#include "stats/composite.h"
#include "stats/distribution.h"
#include "stats/piecewise.h"
#include "stats/residual_life.h"
#include "stats/weibull.h"
#include "util/math.h"

namespace raidrel::stats {
namespace {

struct DistCase {
  std::string label;
  std::function<DistributionPtr()> make;
};

// gtest's default printer dumps the raw bytes of the parameter, which include
// the label's heap address, so the printed test IDs changed from build to
// build. Print the label in place of the bytes, keeping gtest's prefix.
void PrintTo(const DistCase& c, std::ostream* os) {
  *os << sizeof(DistCase) << "-byte object <" << c.label << ">";
}

DistributionPtr hdd3_like() {
  std::vector<MixtureDistribution::Component> comps;
  comps.push_back({0.15, std::make_unique<Weibull>(0.0, 5.0e4, 0.9)});
  comps.push_back({0.85, std::make_unique<Weibull>(0.0, 1.2e6, 1.0)});
  std::vector<DistributionPtr> risks;
  risks.push_back(std::make_unique<MixtureDistribution>(std::move(comps)));
  risks.push_back(std::make_unique<Weibull>(15000.0, 3.5e4, 3.5));
  return std::make_unique<CompetingRisks>(std::move(risks));
}

std::vector<DistCase> all_cases() {
  return {
      {"weibull-ttop", [] {
         return std::make_unique<Weibull>(0.0, 461386.0, 1.12);
       }},
      {"weibull-ttr", [] { return std::make_unique<Weibull>(6.0, 12.0, 2.0); }},
      {"weibull-ttld", [] {
         return std::make_unique<Weibull>(0.0, 9259.0, 1.0);
       }},
      {"weibull-scrub", [] {
         return std::make_unique<Weibull>(6.0, 168.0, 3.0);
       }},
      {"weibull-infant", [] {
         return std::make_unique<Weibull>(0.0, 1000.0, 0.7);
       }},
      {"exponential", [] {  // the beta = 1 Weibull
         return std::make_unique<Weibull>(0.0, 1.0 / 0.013, 1.0);
       }},
      {"gamma", [] { return std::make_unique<Gamma>(2.5, 40.0); }},
      {"mixture-bimodal", [] {
         std::vector<MixtureDistribution::Component> comps;
         comps.push_back({0.4, std::make_unique<Weibull>(0.0, 50.0, 1.5)});
         comps.push_back({0.6, std::make_unique<Weibull>(0.0, 800.0, 1.0)});
         return std::make_unique<MixtureDistribution>(std::move(comps));
       }},
      {"competing-hdd3", hdd3_like},
      {"piecewise-duty-cycle", [] {
         return std::make_unique<PiecewiseConstantHazard>(
             std::vector<PiecewiseConstantHazard::Segment>{
                 {0.0, 1.0 / 900.0}, {8760.0, 1.0 / 9000.0}});
       }},
      {"residual-burned-weibull", [] {
         return std::make_unique<ResidualLife>(
             std::make_unique<Weibull>(0.0, 500.0, 0.8), 100.0);
       }},
  };
}

class DistributionProperty : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributionProperty, CdfIsMonotoneWithin01) {
  const auto d = GetParam().make();
  double prev = -1.0;
  for (double p = 0.02; p < 1.0; p += 0.02) {
    const double t = d->quantile(p);
    const double f = d->cdf(t);
    EXPECT_GE(f, prev - 1e-12);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
}

TEST_P(DistributionProperty, SurvivalComplementsCdf) {
  const auto d = GetParam().make();
  for (double p : {0.05, 0.3, 0.5, 0.8, 0.99}) {
    const double t = d->quantile(p);
    EXPECT_NEAR(d->cdf(t) + d->survival(t), 1.0, 1e-9) << "p=" << p;
  }
}

TEST_P(DistributionProperty, QuantileIsCdfInverse) {
  const auto d = GetParam().make();
  for (double p : {0.01, 0.1, 0.5, 0.9, 0.99}) {
    EXPECT_NEAR(d->cdf(d->quantile(p)), p, 1e-6) << "p=" << p;
  }
}

TEST_P(DistributionProperty, CumHazardMatchesSurvival) {
  const auto d = GetParam().make();
  for (double p : {0.1, 0.5, 0.9}) {
    const double t = d->quantile(p);
    const double s = d->survival(t);
    if (s > 0.0 && std::isfinite(d->cum_hazard(t))) {
      EXPECT_NEAR(std::exp(-d->cum_hazard(t)), s, 1e-8) << "p=" << p;
    }
  }
}

TEST_P(DistributionProperty, SamplesObeyTheLaw) {
  // Empirical CDF at deciles must match the analytic CDF.
  const auto d = GetParam().make();
  rng::RandomStream rs(0xABCDEF);
  const int n = 40000;
  std::vector<double> samples(n);
  for (auto& s : samples) s = d->sample(rs);
  std::sort(samples.begin(), samples.end());
  for (double p : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const double q = d->quantile(p);
    const auto below = std::lower_bound(samples.begin(), samples.end(), q) -
                       samples.begin();
    EXPECT_NEAR(static_cast<double>(below) / n, p, 0.012)
        << GetParam().label << " p=" << p;
  }
}

TEST_P(DistributionProperty, SampleMeanMatchesAnalyticMean) {
  const auto d = GetParam().make();
  const double mean = d->mean();
  rng::RandomStream rs(0x13579B);
  util::RunningStats stats;
  for (int i = 0; i < 60000; ++i) stats.add(d->sample(rs));
  EXPECT_NEAR(stats.mean(), mean, std::max(5.0 * stats.sem(), 1e-9 * mean))
      << GetParam().label;
}

TEST_P(DistributionProperty, ResidualSamplingMatchesConditionalSurvival) {
  // P(residual > r | age a) must equal S(a + r)/S(a): compare the empirical
  // exceedance at the conditional median.
  const auto d = GetParam().make();
  const double age = d->quantile(0.3);
  const double s_age = d->survival(age);
  if (s_age <= 0.01) GTEST_SKIP() << "degenerate tail";
  // Conditional median: t such that S(t)/S(age) = 0.5.
  const double t_med = d->quantile(1.0 - 0.5 * s_age);
  rng::RandomStream rs(0x24680);
  int above = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    above += (d->sample_residual(age, rs) > (t_med - age)) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(above) / n, 0.5, 0.012) << GetParam().label;
}

TEST_P(DistributionProperty, ResidualIsNonNegative) {
  const auto d = GetParam().make();
  rng::RandomStream rs(0x555);
  for (double page : {0.0, 0.2, 0.6, 0.95}) {
    const double age = page == 0.0 ? 0.0 : d->quantile(page);
    for (int i = 0; i < 200; ++i) {
      EXPECT_GE(d->sample_residual(age, rs), 0.0) << GetParam().label;
    }
  }
}

TEST_P(DistributionProperty, CloneBehavesIdentically) {
  const auto d = GetParam().make();
  const auto c = d->clone();
  for (double p : {0.1, 0.5, 0.9}) {
    const double t = d->quantile(p);
    EXPECT_DOUBLE_EQ(c->cdf(t), d->cdf(t));
    EXPECT_DOUBLE_EQ(c->pdf(t), d->pdf(t));
  }
  EXPECT_EQ(c->describe(), d->describe());
}

TEST_P(DistributionProperty, MeanIsPositiveAndFinite) {
  const auto d = GetParam().make();
  const double m = d->mean();
  EXPECT_TRUE(std::isfinite(m)) << GetParam().label;
  EXPECT_GT(m, 0.0) << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, DistributionProperty,
    ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<DistCase>& info) {
      std::string name = info.param.label;
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace raidrel::stats
