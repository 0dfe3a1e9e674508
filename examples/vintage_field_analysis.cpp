// Vintage field analysis: the end-to-end workflow of the paper's §2 + §7 —
// take raw field return data (times on test with failures/suspensions),
// check whether it is even Weibull (probability plot / r^2), fit it, and
// feed the fitted law into the RAID model to see what the vintage does to
// data-loss rates.
//
//   $ ./vintage_field_analysis [--vintage 1|2|3] [--trials N] [--seed S]
//
// Any other flag exits 2 without running.
//
// Uses the synthetic regeneration of the paper's Fig. 2 vintages as the
// "raw data" source (see DESIGN.md's substitution table).
#include <iostream>
#include <string_view>

#include "core/model.h"
#include "core/presets.h"
#include "field/paper_products.h"
#include "report/table.h"
#include "stats/fit.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/strings.h"

int main(int argc, char** argv) try {
  using namespace raidrel;
  const util::CliArgs args(argc, argv);
  constexpr std::string_view kFlags[] = {"vintage", "trials", "seed"};
  args.reject_unknown_flags(kFlags);
  const auto vintages = field::figure2_vintages();
  const auto number =
      args.get_int_in<std::size_t>("vintage", 3, 1, vintages.size());
  const auto& vintage = vintages[number - 1];

  // --- Step 1: obtain the field study (generated; a real deployment would
  // load return data here).
  rng::RandomStream rs(static_cast<std::uint64_t>(args.get_int("seed", 7)));
  const auto pop = field::make_vintage_population(vintage);
  const auto data = field::generate_study(pop, rs);
  std::size_t failures = 0;
  for (const auto& obs : data) failures += obs.event ? 1 : 0;
  std::cout << "Field study \"" << vintage.name << "\": " << data.size()
            << " drives, " << failures << " failures, "
            << data.size() - failures << " suspensions over "
            << util::format_fixed(pop.observation_hours, 0) << " h\n\n";

  // --- Step 2: is it Weibull at all? Rank-regression linearity.
  const auto rr = stats::fit_weibull_rank_regression_censored(data);
  std::cout << "Weibull probability plot linearity r^2 = "
            << util::format_fixed(rr.r_squared, 4)
            << (rr.r_squared > 0.95 ? " (acceptably straight)\n"
                                    : " (NOT straight - check for mixtures)\n");

  // --- Step 3: fit by censored MLE.
  const auto fit = stats::fit_weibull_mle(data);
  std::cout << "Censored MLE fit: beta = " << util::format_fixed(fit.params.beta, 4)
            << ", eta = " << util::format_general(fit.params.eta, 5)
            << " h (true generating values: beta = "
            << vintage.true_params.beta << ", eta = "
            << vintage.true_params.eta << ")\n";
  const double beta = fit.params.beta;
  std::cout << "Hazard trend: "
            << (beta > 1.05
                    ? "increasing (wear-out) - MTTDL will OVERESTIMATE life"
                : beta < 0.95
                    ? "decreasing (infant mortality) - MTTDL will miss "
                      "early-life risk"
                    : "near-constant")
            << "\n\n";

  // --- Step 4: plug the fitted vintage into the RAID model.
  sim::RunOptions run;
  run.trials = args.get_int_in<std::size_t>("trials", 40000, 1);
  run.seed = 1234;

  core::ScenarioConfig scenario = core::presets::base_case();
  scenario.name = std::string("base case with ") + vintage.name;
  scenario.ttop = fit.params;
  const auto result = core::evaluate_scenario(scenario, run);

  const auto baseline =
      core::evaluate_scenario(core::presets::base_case(), run);

  report::Table table({"scenario", "DDFs/1000 groups (10 yr)",
                       "first-year ratio vs MTTDL"});
  table.add_row({"paper base case",
                 util::format_fixed(baseline.run.total_ddfs_per_1000(), 1),
                 util::format_fixed(baseline.ratio_vs_mttdl_at(8760.0), 0)});
  table.add_row({scenario.name,
                 util::format_fixed(result.run.total_ddfs_per_1000(), 1),
                 util::format_fixed(result.ratio_vs_mttdl_at(8760.0), 0)});
  table.print_text(std::cout);

  std::cout << "\nNote: the ratio columns use each scenario's own eta as "
               "the MTBF the MTTDL method would have assumed — exactly how "
               "a practitioner would (mis)use it.\n";
  return 0;
} catch (const raidrel::ModelError& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
