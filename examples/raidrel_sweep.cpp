// raidrel_sweep — the paper's sensitivity studies in one command.
//
// Reproduces the Table 3 scrub comparison and the figure sweeps (scrub
// period, restore time, latent-defect rate from the Table 1 grid, disk
// vintage, group size, check-drive count x rebuild placement) on the
// sharded sweep engine, with a digest-keyed result cache per study:
//
//   $ ./raidrel_sweep                      # every study, cached manifests
//   $ ./raidrel_sweep --study table3       # just the Table 3 comparison
//   $ ./raidrel_sweep --study table3 --max-cells 2   # "interrupt" early
//   $ ./raidrel_sweep --study table3       # ...and resume the remainder
//
// A rerun with the same settings simulates nothing (every cell is cached)
// and rewrites byte-identical manifests; an interrupted sweep resumes from
// where it stopped. --trials bounds the per-cell adaptive budget.
//
// Resilience: the sweep engine retries failing cells and manifest I/O,
// quarantines cells that keep failing, and finishes everything else. Any
// failure path can be exercised deterministically:
//
//   $ ./raidrel_sweep --list-inject-sites                  # the registry
//   $ ./raidrel_sweep --study table3 --inject cell:1       # survive a fault
//
// Graceful shutdown: the first SIGINT/SIGTERM drains cooperatively — the
// in-flight cells are abandoned (nothing partial is written), every
// completed cell is compacted into the manifest, and the process exits 4;
// rerunning resumes from the checkpoint and converges to byte-identical
// manifests. A second signal forces the conventional 128+N exit
// immediately; even then (or after a crash) the fsynced journal beside the
// manifest keeps every completed cell for the rerun. --wall-deadline
// bounds the whole invocation the same way; --cell-time-budget /
// --cell-hard-budget bound individual cells (docs/MODEL.md §16).
//
// Exit codes: 0 = complete, 2 = configuration / model error, 3 = completed
// degraded (quarantined cells or survived I/O errors; results printed,
// rerun to retry the failures), 4 = interrupted with a durable checkpoint
// (signal or --wall-deadline; rerun to resume), 128+N = forced by a second
// signal N.
#include <iostream>
#include <optional>
#include <vector>

#include "util/cancel.h"

#include "analytic/mttdl.h"
#include "core/presets.h"
#include "fault/fault_injection.h"
#include "field/paper_products.h"
#include "report/table.h"
#include "sweep/sweep_runner.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/strings.h"

namespace {

using namespace raidrel;

struct StudyOutput {
  bool ratio_vs_mttdl = false;  ///< add Table 3's ratio column
};

sweep::SweepSpec make_study(const std::string& study) {
  if (study == "table3") {
    // Table 3: first-year DDFs under each scrub policy, worst (no scrub)
    // first, against the MTTDL prediction.
    return sweep::SweepSpec("table3", core::presets::base_case())
        .add_scrub_period_axis({336.0, 168.0, 48.0, 12.0},
                               /*include_no_scrub=*/true);
  }
  if (study == "scrub") {
    // The paper's scrub-duration sweep (Fig. 9 in the repo's numbering).
    return sweep::SweepSpec("scrub", core::presets::base_case())
        .add_scrub_period_axis(core::presets::fig9_scrub_durations());
  }
  if (study == "restore") {
    // Restore-time sensitivity: the paper's point that rebuild time drives
    // the double-failure window.
    return sweep::SweepSpec("restore", core::presets::base_case())
        .add_restore_eta_axis({6.0, 12.0, 24.0, 48.0, 96.0});
  }
  if (study == "latent") {
    // The full Table 1 RER x read-rate grid of latent-defect rates.
    return sweep::SweepSpec("latent", core::presets::base_case())
        .add_table1_latent_axis();
  }
  if (study == "vintage") {
    // The Fig. 2 vintages: same product, different failure laws.
    std::vector<std::pair<std::string, stats::WeibullParams>> laws;
    laws.emplace_back("base", core::presets::base_case().ttop);
    for (const auto& v : field::figure2_vintages()) {
      laws.emplace_back(v.name, v.true_params);
    }
    return sweep::SweepSpec("vintage", core::presets::base_case())
        .add_op_law_axis(laws);
  }
  if (study == "group") {
    return sweep::SweepSpec("group", core::presets::base_case())
        .add_group_size_axis({4, 6, 8, 10, 14});
  }
  if (study == "check-drives") {
    // Check-drive count m against rebuild placement: the "one more check
    // drive beats a faster rebuild" tradeoff (docs/MODEL.md §15).
    return sweep::SweepSpec("check-drives", core::presets::base_case())
        .add_redundancy_axis({1, 2, 3})
        .add_rebuild_model_axis({raid::RebuildModel::kDedicatedSpare,
                                 raid::RebuildModel::kDeclustered});
  }
  throw ModelError("unknown --study \"" + study +
                   "\"; valid choices: table3, scrub, restore, latent, "
                   "vintage, group, check-drives, all");
}

void print_study(const sweep::SweepSpec& spec,
                 const sweep::SweepResult& result, const StudyOutput& out) {
  const double first_year = 8760.0;
  double mttdl_first_year = 0.0;
  if (out.ratio_vs_mttdl) {
    mttdl_first_year = analytic::expected_ddfs(core::presets::mttdl_inputs(),
                                               first_year, 1000.0);
  }

  std::vector<std::string> headers;
  for (const auto& axis : spec.axes()) headers.push_back(axis.name);
  headers.insert(headers.end(),
                 {"trials", "stop", "DDFs/1000 (10 yr)", "+/- SEM",
                  "year-1 /1000"});
  if (out.ratio_vs_mttdl) headers.push_back("ratio vs MTTDL");

  report::Table table(std::move(headers));
  for (const auto& cell : result.cells) {
    std::vector<std::string> row;
    for (const auto& [axis, value] : cell.coordinates) row.push_back(value);
    row.push_back(std::to_string(cell.trials));
    row.push_back(cell.stop);
    row.push_back(util::format_general(cell.total_ddfs_per_1000, 4));
    row.push_back(util::format_general(cell.sem_per_1000, 2));
    row.push_back(util::format_general(cell.year1_ddfs_per_1000, 4));
    if (out.ratio_vs_mttdl) {
      row.push_back(util::format_fixed(
          cell.year1_ddfs_per_1000 / mttdl_first_year, 0));
    }
    table.add_row(std::move(row));
  }
  table.print_text(std::cout);
  if (out.ratio_vs_mttdl) {
    std::cout << "MTTDL (eq. 3) predicts " << util::format_fixed(
                     mttdl_first_year, 4)
              << " DDFs/1000 groups in year 1 — the ratio column is the "
                 "paper's headline.\n";
  }
}

/// Quarantined cells and survived I/O errors, as a table plus the fault
/// counters — the degraded-pass report behind exit code 3.
void print_failures(const sweep::SweepResult& result) {
  report::Table table({"site", "cell", "attempts", "error"});
  for (const auto& q : result.quarantined) {
    table.add_row({q.site, q.label, std::to_string(q.attempts), q.message});
  }
  for (const auto& e : result.io_errors) {
    table.add_row({e.site, e.label, std::to_string(e.attempts), e.message});
  }
  table.print_text(std::cout);
  std::cout << result.quarantined.size() << " cell(s) quarantined, "
            << result.io_errors.size() << " I/O error(s) survived ("
            << result.faults_injected << " injected fault(s), "
            << result.retries << " retries)\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::CliArgs args(argc, argv);

    if (args.get_bool("list-inject-sites", false)) {
      for (const auto& site : fault::registered_sites()) {
        std::cout << site << "\n";
      }
      return 0;
    }

    const std::string study = args.get_string("study", "all");
    std::vector<std::string> studies;
    if (study == "all") {
      studies = {"table3",  "scrub", "restore",      "latent",
                 "vintage", "group", "check-drives"};
    } else {
      studies = {study};
    }

    const auto trials =
        static_cast<std::size_t>(args.get_int_at_least("trials", 60000, 1));
    sweep::SweepOptions opt;
    opt.convergence.seed =
        static_cast<std::uint64_t>(args.get_int("seed", 20070625));
    opt.convergence.max_trials = trials;
    opt.convergence.batch_trials = std::min<std::size_t>(
        static_cast<std::size_t>(
            args.get_int_at_least("batch", 20000, 1)),
        trials);
    opt.convergence.min_trials = opt.convergence.batch_trials;
    opt.convergence.target_relative_sem =
        args.get_double("target-sem", 0.05);
    opt.threads =
        static_cast<unsigned>(args.get_int_at_least("threads", 0, 0));
    opt.resume = !args.get_bool("no-resume", false);
    opt.max_cells =
        static_cast<std::size_t>(args.get_int_at_least("max-cells", 0, 0));
    opt.progress = args.get_bool("quiet", false) ? nullptr : &std::cout;
    opt.cell_attempts =
        static_cast<unsigned>(args.get_int_at_least("cell-attempts", 2, 1));
    // --trial-deadline is the canonical name for the per-cell trial clamp;
    // --deadline remains an alias from the release that introduced it.
    opt.cell_trial_deadline = static_cast<std::size_t>(
        args.has("trial-deadline")
            ? args.get_int_at_least("trial-deadline", 0, 0)
            : args.get_int_at_least("deadline", 0, 0));
    opt.retry_backoff_ms = args.get_double("retry-backoff-ms", 0.0);
    opt.cell_soft_budget_seconds = args.get_double("cell-time-budget", 0.0);
    opt.cell_hard_budget_seconds = args.get_double("cell-hard-budget", 0.0);

    // Cooperative shutdown: one root token for the whole invocation,
    // optionally bounded by a wall-clock deadline, tripped by the first
    // SIGINT/SIGTERM (the second forces _exit(128+sig)). Workers drain at
    // trial granularity, and every completed cell is already journaled.
    const double wall_deadline = args.get_double("wall-deadline", 0.0);
    RAIDREL_REQUIRE(wall_deadline >= 0.0,
                    "--wall-deadline must be non-negative seconds");
    util::CancelToken cancel_token(
        wall_deadline > 0.0 ? util::Deadline::after_seconds(wall_deadline)
                            : util::Deadline::never());
    const util::SignalGuard signal_guard(cancel_token);
    opt.cancel = &cancel_token;

    // One injector for the whole invocation: hit counters run across
    // studies, so "--inject manifest_write:2" means the second manifest
    // write of the process, whichever study performs it.
    const std::string inject = args.get_string("inject", "");
    std::optional<fault::FaultInjector> injector;
    if (!inject.empty()) {
      injector.emplace(fault::FaultPlan::parse(inject));
      opt.fault = &*injector;
    }

    // One manifest per study: "--manifest path" names it directly when a
    // single study runs; otherwise "--manifest-prefix p" yields
    // "p<study>.manifest.json" (default prefix "sweep.").
    const std::string manifest_override = args.get_string("manifest", "");
    RAIDREL_REQUIRE(manifest_override.empty() || studies.size() == 1,
                    "--manifest needs a single --study; use "
                    "--manifest-prefix for --study all");
    const std::string prefix = args.get_string("manifest-prefix", "sweep.");
    const bool cache = !args.get_bool("no-cache", false);

    int exit_code = 0;
    for (const auto& name : studies) {
      const sweep::SweepSpec spec = make_study(name);
      sweep::SweepOptions study_opt = opt;
      if (cache) {
        study_opt.manifest_path = !manifest_override.empty()
                                      ? manifest_override
                                      : prefix + name + ".manifest.json";
      }
      std::cout << "== study " << name << " (" << spec.cell_count()
                << " cells, seed " << study_opt.convergence.seed
                << ", <= " << trials << " trials/cell) ==\n";
      const sweep::SweepResult result =
          sweep::SweepRunner(study_opt).run(spec);
      std::cout << result.simulated << " simulated, " << result.cached
                << " cached";
      if (!study_opt.manifest_path.empty()) {
        std::cout << " -> " << study_opt.manifest_path;
      }
      std::cout << "\n";
      if (result.degraded()) {
        print_failures(result);
        exit_code = 3;
      }
      if (result.interrupted) {
        // Signal or wall deadline: the manifest holds every completed
        // cell, remaining studies are skipped, and exit code 4 tells
        // scripts "rerun to resume byte-identically".
        std::cout << "sweep interrupted (" << result.stop_reason << ") after "
                  << result.cells.size() << "/" << result.total_cells
                  << " cells; checkpoint is durable, rerun to resume.\n";
        exit_code = 4;
        break;
      }
      if (!result.complete) {
        if (!result.degraded()) {
          std::cout << "sweep interrupted after " << result.cells.size()
                    << "/" << result.total_cells
                    << " cells (--max-cells); rerun to resume.\n\n";
        } else {
          std::cout << "sweep incomplete: " << result.cells.size() << "/"
                    << result.total_cells
                    << " cells have results; rerun to retry the rest.\n\n";
        }
        continue;
      }
      std::cout << "sweep digest: " << result.sweep_digest << "\n";
      print_study(spec, result, {.ratio_vs_mttdl = name == "table3"});
      std::cout << "\n";
    }
    return exit_code;
  } catch (const raidrel::ModelError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
