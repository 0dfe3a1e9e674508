// RAID group planner: the design question the paper says its model should
// drive — "the best RAID group size based on a specific manufacturer's
// HDDs" and whether RAID 6 is needed. Sweeps group width for one, two and
// three check drives at a fixed usable-capacity target and reports
// data-loss rates and capacity overhead.
//
//   $ ./raid_group_planner [--data-drives 28] [--trials N] [--threads N]
//                          [--manifest cache.json]
//                          [--rebuild dedicated|declustered]
//
// --rebuild declustered plans with declustered placement: every surviving
// drive contributes to each rebuild, so restores speed up in healthy
// groups and slow down as sources are lost (docs/MODEL.md §15).
//
// The layouts are one axis of a sweep::SweepSpec run on the sharded sweep
// engine; pass --manifest to cache converged layouts across invocations
// (replanning for a different capacity reuses every layout already run).
//
// SIGINT/SIGTERM drain cooperatively (exit 4, manifest checkpoint durable,
// rerun to resume); a second signal forces 128+N. --wall-deadline bounds
// the invocation the same way. Exit codes: 0 complete, 2 config error or
// unknown flag, 3 degraded, 4 interrupted.
#include <iostream>
#include <string_view>
#include <vector>

#include "core/presets.h"
#include "report/table.h"
#include "sweep/sweep_runner.h"
#include "util/cancel.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/strings.h"

int main(int argc, char** argv) {
  using namespace raidrel;
  try {
    const util::CliArgs args(argc, argv);
    constexpr std::string_view kFlags[] = {"data-drives", "rebuild", "trials",
                                           "seed",        "threads", "manifest",
                                           "wall-deadline"};
    args.reject_unknown_flags(kFlags);
    // Total data drives the deployment must provide (spread across groups).
    const auto data_drives = args.get_int_in<unsigned>("data-drives", 28, 1);

    std::cout << "Planning for " << data_drives
              << " data drives' worth of capacity, paper base-case drives "
                 "(beta 1.12) with 168 h scrub, 10-year mission.\n\n";

    struct Layout {
      unsigned group_width;  // total drives per group
      unsigned redundancy;
    };
    const std::vector<Layout> layouts = {{4, 1},  {8, 1},  {14, 1},
                                         {6, 2},  {10, 2}, {16, 2},
                                         {12, 3}, {18, 3}};

    const std::string rebuild_name =
        args.get_string("rebuild", "dedicated");
    core::ScenarioConfig base = core::presets::base_case();
    if (rebuild_name == "declustered") {
      base.rebuild = raid::RebuildModel::kDeclustered;
    } else if (rebuild_name != "dedicated") {
      throw ModelError("unknown --rebuild \"" + rebuild_name +
                       "\"; valid choices: dedicated, declustered");
    }

    sweep::SweepSpec spec("group-planner", std::move(base));
    sweep::Axis axis{"layout", {}};
    for (const Layout& layout : layouts) {
      const unsigned width = layout.group_width;
      const unsigned redundancy = layout.redundancy;
      axis.points.push_back(
          {std::to_string(width - redundancy) + "+" +
               std::to_string(redundancy),
           [width, redundancy](core::ScenarioConfig& s) {
             s.group_drives = width;
             s.redundancy = redundancy;
           }});
    }
    spec.add_axis(std::move(axis));

    const auto trials = args.get_int_in<std::size_t>("trials", 40000, 1);
    sweep::SweepOptions opt;
    opt.convergence.seed = static_cast<std::uint64_t>(args.get_int("seed", 5));
    opt.convergence.max_trials = trials;
    opt.convergence.batch_trials = std::min<std::size_t>(20000, trials);
    opt.convergence.min_trials = opt.convergence.batch_trials;
    opt.convergence.target_relative_sem = 0.05;
    opt.threads = args.get_int_in<unsigned>("threads", 0, 0,
                                             util::kMaxCliThreads);
    opt.manifest_path = args.get_string("manifest", "");

    // Graceful shutdown: first SIGINT/SIGTERM (or an expired
    // --wall-deadline) drains the sweep at trial granularity and exits 4
    // with the manifest checkpoint intact; a second signal forces 128+N.
    const double wall_deadline = args.get_double("wall-deadline", 0.0);
    RAIDREL_REQUIRE(wall_deadline >= 0.0,
                    "--wall-deadline must be non-negative seconds");
    util::CancelToken cancel_token(
        wall_deadline > 0.0 ? util::Deadline::after_seconds(wall_deadline)
                            : util::Deadline::never());
    const util::SignalGuard signal_guard(cancel_token);
    opt.cancel = &cancel_token;

    const auto sweep_result = sweep::SweepRunner(opt).run(spec);
    if (sweep_result.interrupted) {
      std::cerr << "sweep interrupted (" << sweep_result.stop_reason << ") — "
                << sweep_result.cells.size() << "/"
                << sweep_result.total_cells
                << " layouts done; checkpoint is durable, rerun to resume.\n";
      return 4;
    }
    // The table pairs cells[i] with layouts[i]; a sweep missing cells
    // (quarantined after repeated failures) cannot be presented honestly.
    if (!sweep_result.complete) {
      std::cerr << "error: sweep incomplete — " << sweep_result.failed()
                << " layout(s) quarantined after repeated failures; "
                   "rerun to retry.\n";
      return 3;
    }

    report::Table table({"layout", "groups", "drives total",
                         "parity overhead", "DDFs per deployment (10 yr)",
                         "+/- SEM"});
    for (std::size_t i = 0; i < sweep_result.cells.size(); ++i) {
      const auto& cell = sweep_result.cells[i];
      const Layout& layout = layouts[i];
      const unsigned data_per_group = layout.group_width - layout.redundancy;
      const unsigned groups =
          (data_drives + data_per_group - 1) / data_per_group;

      // DDFs for the whole deployment = per-group rate x number of groups.
      const double per_deployment = cell.total_ddfs_per_1000 / 1000.0 *
                                    static_cast<double>(groups);
      const double sem =
          cell.sem_per_1000 / 1000.0 * static_cast<double>(groups);
      const double overhead = static_cast<double>(layout.redundancy) /
                              static_cast<double>(layout.group_width);
      table.add_row({cell.coordinates.front().second, std::to_string(groups),
                     std::to_string(layout.group_width * groups),
                     util::format_fixed(overhead * 100.0, 1) + "%",
                     util::format_general(per_deployment, 3),
                     util::format_general(sem, 2)});
    }
    table.print_text(std::cout);

    std::cout
        << "\nReading the table: wider single-parity groups cost less "
           "capacity but lose data faster (the paper's N(N+1) scaling, made "
           "worse by latent defects); double parity buys orders of magnitude "
           "even at wider widths — the paper's \"eventually, RAID 6 will be "
           "required\" — and a third check drive repeats the jump at a "
           "fraction of the capacity cost of narrowing the groups.\n";
    if (sweep_result.degraded()) {
      std::cerr << "warning: sweep survived " << sweep_result.io_errors.size()
                << " I/O error(s); the result cache may be stale.\n";
      return 3;
    }
    return 0;
  } catch (const raidrel::ModelError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
