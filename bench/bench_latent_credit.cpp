// Cross-validation of the latent-credit estimator (docs/MODEL.md §19) over
// the full sweep_grid axes: the base case under every scrub setting (none
// and 12..720 h) and every Table 1 latent-defect rate, each cell run twice
// — credited, and on the event path with the same exponential TTLd
// written as a one-segment piecewise-constant hazard (a law the scope
// predicate does not take). Prints per-cell estimates, the z-score of
// their difference and the per-trial variance ratio, and exits non-zero
// if any |z| reaches 4.
#include <cmath>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_support.h"
#include "core/presets.h"
#include "report/table.h"
#include "sim/latent_credit.h"
#include "stats/piecewise.h"
#include "stats/weibull.h"
#include "util/strings.h"
#include "workload/read_errors.h"

int main(int argc, char** argv) {
  using namespace raidrel;
  const auto opt = bench::parse_options(argc, argv, /*default_trials=*/20000);
  bench::print_header(
      "Latent credit vs the event path over the sweep_grid axes",
      "the credited estimate is unbiased (|z| < 4 in every cell) and cuts "
      "per-trial variance",
      opt);

  std::vector<double> scrubs{0.0};  // 0 = no scrubbing
  for (const double h : {12.0, 24.0, 48.0, 72.0, 96.0, 168.0, 336.0, 720.0}) {
    scrubs.push_back(h);
  }
  report::Table table({"scrub (h)", "Table 1 cell", "latent rate (err/h)",
                       "credited /1000", "events /1000", "z",
                       "variance ratio"});
  double worst = 0.0;
  for (const double scrub : scrubs) {
    for (const auto& cell : workload::table1_grid()) {
      core::ScenarioConfig scenario = core::presets::base_case();
      scenario.ttld =
          stats::WeibullParams{0.0, 1.0 / cell.errors_per_hour, 1.0};
      if (scrub > 0.0) {
        scenario.ttscrub = stats::WeibullParams{6.0, scrub, 3.0};
      } else {
        scenario.ttscrub.reset();
      }
      const raid::GroupConfig credited = scenario.to_group_config();
      raid::GroupConfig events = credited.clone();
      for (raid::SlotModel& slot : events.slots) {
        slot.time_to_latent_defect =
            std::make_unique<stats::PiecewiseConstantHazard>(
                std::vector<stats::PiecewiseConstantHazard::Segment>{
                    {0.0, cell.errors_per_hour}});
      }
      if (sim::latent_credit_exclusion(credited) != nullptr ||
          sim::latent_credit_exclusion(events) == nullptr) {
        std::cerr << "scope predicate picked the wrong path\n";
        return 1;
      }
      auto run = opt.run_options();
      const sim::RunResult c = sim::run_monte_carlo(credited, run);
      run = opt.run_options();
      run.seed = opt.seed + 1;  // independent samples for the z-test
      const sim::RunResult e = sim::run_monte_carlo(events, run);
      const double sc = c.total_ddfs_per_1000_sem();
      const double se = e.total_ddfs_per_1000_sem();
      const double z = (c.total_ddfs_per_1000() - e.total_ddfs_per_1000()) /
                       std::sqrt(sc * sc + se * se);
      worst = std::max(worst, std::fabs(z));
      table.add_row(
          {scrub > 0.0 ? util::format_fixed(scrub, 0) : "none",
           cell.rer_label + "/" + cell.rate_label,
           util::format_sci(cell.errors_per_hour, 2),
           util::format_fixed(c.total_ddfs_per_1000(), 1) + " +/- " +
               util::format_fixed(sc, 1),
           util::format_fixed(e.total_ddfs_per_1000(), 1) + " +/- " +
               util::format_fixed(se, 1),
           util::format_fixed(z, 2),
           sc > 0.0 ? util::format_fixed(se * se / (sc * sc), 1) : "-"});
    }
  }
  table.print_text(std::cout);
  if (opt.csv) table.print_csv(std::cout);
  std::cout << "\nLargest |z|: " << util::format_fixed(worst, 2)
            << (worst < 4.0 ? " (every cell agrees)\n"
                            : " — the credited and event paths disagree\n");
  return worst < 4.0 ? 0 : 1;
}
