// Figure 2 — HDD vintage effects: three non-consecutive vintages of one
// product, with published fits (beta 1.0987/1.2162/1.4873). We regenerate
// each censored field study at the published failure/suspension counts,
// refit by censored MLE and rank regression, and bootstrap a CI on beta.
#include <iostream>

#include "bench_support.h"
#include "field/paper_products.h"
#include "report/ascii_chart.h"
#include "report/table.h"
#include "rng/rng.h"
#include "stats/bootstrap.h"
#include "stats/fit.h"
#include "util/strings.h"

int main(int argc, char** argv) {
  using namespace raidrel;
  const auto opt = bench::parse_options(argc, argv);
  bench::print_header(
      "Figure 2 — HDD vintage effects",
      "vintage 1: beta=1.0987 eta=4.5444e5 (F=198, S=10433); vintage 2: "
      "beta=1.2162 eta=1.2566e5 (F=992, S=23064); vintage 3: beta=1.4873 "
      "eta=7.5012e4 (F=921, S=22913)",
      opt);

  rng::RandomStream rs(opt.seed);
  report::Table table({"vintage", "true beta", "fit beta (MLE)",
                       "beta 90% CI", "true eta", "fit eta", "F", "S"});
  report::AsciiChart chart({.width = 72, .height = 22,
                            .x_label = "time to failure (h, log)",
                            .y_label = "ln(-ln(1-F))",
                            .log_x = true});
  static constexpr char kMarkers[] = "*o+";

  int idx = 0;
  for (const auto& vintage : field::figure2_vintages()) {
    const auto pop = field::make_vintage_population(vintage);
    const auto data = field::generate_study(pop, rs);
    const auto fit = stats::fit_weibull_mle(data);
    rng::RandomStream boot_rs(opt.seed + 17 + static_cast<unsigned>(idx));
    const auto ci = stats::bootstrap_ci(
        data,
        [](const stats::LifeData& d) {
          return stats::fit_weibull_mle(d).params.beta;
        },
        200, 0.90, boot_rs);
    std::size_t failures = 0;
    for (const auto& obs : data) failures += obs.event ? 1 : 0;
    table.add_row(
        {vintage.name, util::format_fixed(vintage.true_params.beta, 4),
         util::format_fixed(fit.params.beta, 4),
         bench::format_interval(ci.lower, ci.upper, 3),
         util::format_general(vintage.true_params.eta, 5),
         util::format_general(fit.params.eta, 5), std::to_string(failures),
         std::to_string(data.size() - failures)});

    const auto pts = stats::weibull_plot_points_censored(data);
    std::vector<double> xs, ys;
    const std::size_t step = std::max<std::size_t>(1, pts.size() / 120);
    for (std::size_t i = 0; i < pts.size(); i += step) {
      xs.push_back(pts[i].time);
      ys.push_back(pts[i].y);
    }
    if (opt.chart) {
      chart.add_series(vintage.name, std::move(xs), std::move(ys),
                       kMarkers[idx % 3]);
    }
    ++idx;
  }

  table.print_text(std::cout);
  if (opt.csv) table.print_csv(std::cout);
  if (opt.chart) {
    std::cout << '\n';
    chart.print(std::cout);
  }
  std::cout << "\nReproduction check: each vintage's refitted beta should "
               "bracket its published value; later vintages steeper "
               "(increasing beta) with shorter characteristic life.\n";
  return 0;
}
