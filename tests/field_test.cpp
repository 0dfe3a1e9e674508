#include <cmath>

#include <gtest/gtest.h>

#include "field/paper_products.h"
#include "field/population.h"
#include "stats/fit.h"
#include "util/error.h"

namespace raidrel::field {
namespace {

TEST(Population, GeneratesTypeICensoredStudy) {
  PopulationSpec spec;
  spec.name = "test";
  spec.life = std::make_unique<stats::Weibull>(0.0, 1000.0, 1.5);
  spec.units = 5000;
  spec.observation_hours = 800.0;
  rng::RandomStream rs(1);
  const auto data = generate_study(spec, rs);
  ASSERT_EQ(data.size(), 5000u);
  std::size_t failures = 0;
  for (const auto& obs : data) {
    if (obs.event) {
      EXPECT_LT(obs.time, 800.0);
      ++failures;
    } else {
      EXPECT_DOUBLE_EQ(obs.time, 800.0);
    }
  }
  // Expected failures = n * F(window).
  const double expected = expected_failures(spec);
  EXPECT_NEAR(static_cast<double>(failures), expected,
              5.0 * std::sqrt(expected));
}

TEST(Population, WindowForExpectedFailuresInvertsCdf) {
  stats::Weibull life(0.0, 4.5444e5, 1.0987);
  const double window = window_for_expected_failures(life, 10631, 198);
  EXPECT_NEAR(life.cdf(window) * 10631.0, 198.0, 0.5);
}

TEST(Population, Validation) {
  PopulationSpec bad;
  bad.units = 10;
  bad.observation_hours = 5.0;
  rng::RandomStream rs(2);
  EXPECT_THROW(generate_study(bad, rs), raidrel::ModelError);
}

TEST(Figure1, ThreeProductsWithDocumentedShapes) {
  const auto specs = figure1_products();
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].name, "HDD #1");
  // HDD #1 is a plain Weibull: its description says so.
  EXPECT_NE(specs[0].life->describe().find("Weibull"), std::string::npos);
  // HDD #2/#3 are composite laws.
  EXPECT_NE(specs[1].life->describe().find("CompetingRisks"),
            std::string::npos);
  EXPECT_NE(specs[2].life->describe().find("Mixture"), std::string::npos);
}

TEST(Figure1, OnlyHdd1PlotsStraight) {
  // The paper's headline observation from Fig. 1: HDD #1 lies on a Weibull
  // line; the composite products visibly deviate. Rank-regression r^2 is
  // our straightness measure.
  const auto specs = figure1_products();
  rng::RandomStream rs(7);
  std::vector<double> r2;
  for (const auto& spec : specs) {
    const auto data = generate_study(spec, rs);
    const auto fit = stats::fit_weibull_rank_regression_censored(data);
    r2.push_back(fit.r_squared);
  }
  EXPECT_GT(r2[0], 0.98);       // HDD #1: straight
  EXPECT_GT(r2[0], r2[1]);      // HDD #2 bends
  EXPECT_GT(r2[0], r2[2]);      // HDD #3 bends twice
}

TEST(Figure1, Hdd2HazardTurnsUpAfter10kHours) {
  const auto specs = figure1_products();
  const auto& life = *specs[1].life;
  EXPECT_GT(life.hazard(25000.0), 3.0 * life.hazard(5000.0));
}

TEST(Figure1, Hdd3HazardHasTwoInflections) {
  const auto specs = figure1_products();
  const auto& life = *specs[2].life;
  const double early = life.hazard(500.0);
  const double mid = life.hazard(12000.0);
  const double late = life.hazard(28000.0);
  EXPECT_GT(early, mid);  // infant mortality subsides
  EXPECT_GT(late, mid);   // wear-out takes over
}

TEST(Figure2, VintageSpecsMatchPublishedTable) {
  const auto vintages = figure2_vintages();
  EXPECT_NEAR(vintages[0].true_params.beta, 1.0987, 1e-12);
  EXPECT_NEAR(vintages[0].true_params.eta, 4.5444e5, 1e-6);
  EXPECT_EQ(vintages[0].failures, 198u);
  EXPECT_EQ(vintages[0].suspensions, 10433u);
  EXPECT_NEAR(vintages[1].true_params.beta, 1.2162, 1e-12);
  EXPECT_NEAR(vintages[2].true_params.beta, 1.4873, 1e-12);
  // Later vintages wear out faster: decreasing eta, increasing beta.
  EXPECT_GT(vintages[0].true_params.eta, vintages[1].true_params.eta);
  EXPECT_GT(vintages[1].true_params.eta, vintages[2].true_params.eta);
}

TEST(Figure2, GeneratedStudiesReproducePublishedCounts) {
  for (const auto& vintage : figure2_vintages()) {
    const auto pop = make_vintage_population(vintage);
    EXPECT_EQ(pop.units, vintage.failures + vintage.suspensions);
    EXPECT_NEAR(expected_failures(pop),
                static_cast<double>(vintage.failures), 1.0)
        << vintage.name;
  }
}

TEST(Figure2, RefittingRecoversPublishedParameters) {
  // End-to-end: generate each vintage study, fit by censored MLE, recover
  // the published beta within sampling error.
  rng::RandomStream rs(11);
  for (const auto& vintage : figure2_vintages()) {
    const auto pop = make_vintage_population(vintage);
    const auto data = generate_study(pop, rs);
    const auto fit = stats::fit_weibull_mle(data);
    ASSERT_TRUE(fit.converged) << vintage.name;
    EXPECT_NEAR(fit.params.beta, vintage.true_params.beta,
                0.12 * vintage.true_params.beta)
        << vintage.name;
  }
}

}  // namespace
}  // namespace raidrel::field
