// Quickstart: evaluate the paper's base case and compare the NHPP
// latent-defect model against the classical MTTDL estimate.
//
//   $ ./quickstart [--trials N] [--seed S] [--manifest PATH]
//
// Any other flag exits 2 without running.
//
// This is the five-minute tour of the public API:
//   1. pick a scenario (presets:: or build your own ScenarioConfig),
//   2. run it with evaluate_scenario(),
//   3. read DDF curves, totals and the MTTDL comparison off the result,
//   4. (optionally) save the JSON run manifest with --manifest <path>.
#include <fstream>
#include <iostream>
#include <string_view>

#include "core/model.h"
#include "core/presets.h"
#include "obs/run_telemetry.h"
#include "util/cli.h"
#include "util/error.h"

int main(int argc, char** argv) try {
  using namespace raidrel;
  const util::CliArgs args(argc, argv);
  constexpr std::string_view kFlags[] = {"trials", "seed", "manifest"};
  args.reject_unknown_flags(kFlags);

  // 1. The paper's Table 2 base case: 7+1 RAID group, Weibull TTOp
  //    (eta 461,386 h, beta 1.12), 6-12 h restores, latent defects every
  //    ~9,259 h scrubbed over ~168 h, 10-year mission.
  const core::ScenarioConfig scenario = core::presets::base_case();
  std::cout << "Scenario: " << scenario.summary() << "\n\n";

  // 2. Run the sequential Monte Carlo model. The telemetry sink is
  //    optional observability: per-worker event counters, throughput, and
  //    a diffable JSON manifest identifying the run (seed + config
  //    digest). It never changes the simulated results.
  obs::RunTelemetry telemetry;
  sim::RunOptions run;
  run.trials = args.get_int_in<std::size_t>("trials", 50000, 1);
  run.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  run.telemetry = &telemetry;
  const core::ScenarioResult result = core::evaluate_scenario(scenario, run);

  // 3. Read the answers.
  const double model_ddfs = result.run.total_ddfs_per_1000();
  const double mttdl_ddfs = result.mttdl_ddfs_per_1000_at(87600.0);
  std::cout << "Simulated DDFs per 1000 RAID groups over 10 years: "
            << model_ddfs << " +/- " << result.run.total_ddfs_per_1000_sem()
            << "\n  of which latent-defect-then-operational: "
            << result.run.total_per_1000(raid::DdfKind::kLatentThenOp)
            << "\n  and double-operational: "
            << result.run.total_per_1000(raid::DdfKind::kDoubleOperational)
            << "\n\nClassical MTTDL says: " << result.mttdl_hours / 8760.0
            << " years between data losses, i.e. " << mttdl_ddfs
            << " DDFs per 1000 groups over the same mission.\n"
            << "The MTTDL method under-predicts data loss by a factor of "
            << model_ddfs / mttdl_ddfs << ".\n\n";

  std::cout << "First-year view (the paper's Table 3 comparison):\n"
            << "  model: " << result.run.ddfs_per_1000_at(8760.0)
            << " DDFs/1000 groups, MTTDL: "
            << result.mttdl_ddfs_per_1000_at(8760.0) << " -> ratio "
            << result.ratio_vs_mttdl_at(8760.0) << "\n\n";

  // 4. What the run itself looked like.
  const obs::WorkerStats totals = telemetry.totals();
  std::cout << "Run telemetry: " << totals.trials << " trials on "
            << telemetry.threads() << " threads, "
            << static_cast<std::uint64_t>(telemetry.trials_per_second())
            << " trials/s\n  events: " << totals.op_failures
            << " op failures, " << totals.latent_defects
            << " latent defects, " << totals.scrubs_completed << " scrubs, "
            << totals.restores_completed << " restores\n  estimator: "
            << telemetry.estimator()
            << (telemetry.estimator() == "latent-credit"
                    ? " (latent defects and scrubs integrated, not simulated)"
                    : " (" + telemetry.estimator_reason() + ")")
            << "\n";
  const std::string manifest = args.get_string("manifest", "");
  if (!manifest.empty()) {
    std::ofstream out(manifest);
    if (!out) {
      std::cerr << "cannot write manifest: " << manifest << "\n";
      return 1;
    }
    telemetry.write_json(out);
    std::cout << "run manifest written to " << manifest << "\n";
  }
  return 0;
} catch (const raidrel::ModelError& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
