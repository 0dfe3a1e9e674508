// Scrub-policy explorer: the workflow the paper's conclusion recommends to
// RAID designers — pick your hardware and read-error regime, then find the
// longest (cheapest) scrub period that still meets a data-loss budget.
//
//   $ ./scrub_policy_explorer --capacity-gb 500 --bus-gbit 1.5
//         --rer high --read-rate high --budget-ddfs 20 [--trials N]
//         [--threads N] [--manifest cache.json]
//   (one command line; wrapped here for width)
//
// The scrub periods are one axis of a sweep::SweepSpec and run on the
// sharded sweep engine: pass --manifest to cache converged cells, and a
// rerun (or a tweaked budget) only simulates what changed.
//
// SIGINT/SIGTERM drain cooperatively (exit 4, manifest checkpoint durable,
// rerun to resume); a second signal forces 128+N. --wall-deadline bounds
// the invocation the same way. Exit codes: 0 complete, 2 config error or
// unknown flag, 3 degraded, 4 interrupted.
#include <algorithm>
#include <iostream>
#include <string_view>

#include "core/presets.h"
#include "report/table.h"
#include "sweep/sweep_runner.h"
#include "util/cancel.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/strings.h"
#include "workload/read_errors.h"
#include "workload/restore_model.h"

namespace {

// Lowercased first word of a Table 1 label: "Low Rate" -> "low".
std::string level_token(const std::string& label) {
  std::string token = label.substr(0, label.find(' '));
  std::transform(token.begin(), token.end(), token.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return token;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace raidrel;
  try {
    const util::CliArgs args(argc, argv);
    constexpr std::string_view kFlags[] = {
        "capacity-gb", "drive-mb-s", "bus-gbit",    "group",
        "foreground",  "rer",        "read-rate",   "budget-ddfs",
        "trials",      "seed",       "threads",     "manifest",
        "wall-deadline"};
    args.reject_unknown_flags(kFlags);

    // Hardware description drives the physical minimum rebuild/scrub times.
    workload::RebuildEnvironment env;
    env.drive_capacity_gb = args.get_double("capacity-gb", 500.0);
    env.drive_rate_mb_s = args.get_double("drive-mb-s", 50.0);
    env.bus_rate_gbit_s = args.get_double("bus-gbit", 1.5);
    // A group below 2 drives is meaningless.
    env.group_size = args.get_int_in<unsigned>("group", 8, 2);
    env.foreground_io_fraction = args.get_double("foreground", 0.3);

    // Read-error regime: a cell of the paper's Table 1, validated against
    // the published level names so "--rer hgih" fails loudly instead of
    // silently falling back to the Med cell.
    const std::string rer_level = args.get_string("rer", "med");
    const std::string rate_level = args.get_string("read-rate", "low");
    double rer = -1.0;
    std::string rer_choices;
    for (const auto& level : workload::table1_rer_levels()) {
      const std::string token = level_token(level.label);
      if (!rer_choices.empty()) rer_choices += ", ";
      rer_choices += token;
      if (rer_level == token) rer = level.errors_per_byte;
    }
    if (rer < 0.0) {
      std::cerr << "unknown --rer level \"" << rer_level
                << "\"; valid choices: " << rer_choices << "\n";
      return 2;
    }
    double bytes_per_hour = -1.0;
    std::string rate_choices;
    for (const auto& rate : workload::table1_read_rates()) {
      const std::string token = level_token(rate.label);
      if (!rate_choices.empty()) rate_choices += ", ";
      rate_choices += token;
      if (rate_level == token) bytes_per_hour = rate.bytes_per_hour;
    }
    if (bytes_per_hour < 0.0) {
      std::cerr << "unknown --read-rate level \"" << rate_level
                << "\"; valid choices: " << rate_choices << "\n";
      return 2;
    }
    const double defect_rate =
        workload::latent_defect_rate_per_hour(rer, bytes_per_hour);

    const double budget =
        args.get_double("budget-ddfs", 20.0);  // per 1000 groups per 10 yr

    std::cout << "Hardware: " << env.drive_capacity_gb << " GB drives, "
              << env.bus_rate_gbit_s << " Gb/s bus, group of "
              << env.group_size << ", " << env.foreground_io_fraction * 100
              << "% foreground I/O\n"
              << "Minimum rebuild: " << workload::minimum_rebuild_hours(env)
              << " h; minimum scrub pass: "
              << workload::minimum_scrub_hours(env) << " h\n"
              << "Latent-defect rate: " << util::format_sci(defect_rate, 2)
              << " err/h (TTLd eta = "
              << util::format_fixed(1.0 / defect_rate, 0) << " h)\n"
              << "Data-loss budget: " << budget
              << " DDFs per 1000 groups per 10 years\n\n";

    // The candidate scrub policies form one axis of a sweep. Each point
    // rebuilds the scrub law around the hardware's physical minimum pass
    // time, so short periods cannot dip below what the bus can deliver.
    core::ScenarioConfig base = core::presets::base_case();
    base.group_drives = env.group_size;
    base.ttld = stats::WeibullParams{0.0, 1.0 / defect_rate, 1.0};
    base.ttr = workload::restore_distribution(env, {12.0, 2.0}).params();

    sweep::SweepSpec spec("scrub-policy", base);
    sweep::Axis axis{"scrub", {}};
    for (const double scrub : {24.0, 48.0, 96.0, 168.0, 336.0, 672.0}) {
      const auto law = workload::scrub_distribution(env, scrub).params();
      axis.points.push_back({util::format_fixed(scrub, 0),
                             [law](core::ScenarioConfig& s) {
                               s.ttscrub = law;
                             }});
    }
    spec.add_axis(std::move(axis));

    const auto trials = args.get_int_in<std::size_t>("trials", 40000, 1);
    sweep::SweepOptions opt;
    opt.convergence.seed =
        static_cast<std::uint64_t>(args.get_int("seed", 99));
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
                << " periods done; checkpoint is durable, rerun to resume.\n";
      return 4;
    }
    // The recommendation scans every tested period; with quarantined cells
    // missing it could endorse a policy the failed cells would veto.
    if (!sweep_result.complete) {
      std::cerr << "error: sweep incomplete — " << sweep_result.failed()
                << " scrub period(s) quarantined after repeated failures; "
                   "rerun to retry.\n";
      return 3;
    }

    report::Table table({"scrub period (h)", "DDFs/1000 (10 yr)", "+/- SEM",
                         "meets budget?"});
    double best_meeting_budget = -1.0;
    for (const auto& cell : sweep_result.cells) {
      const double total = cell.total_ddfs_per_1000;
      const bool ok = total <= budget;
      const double scrub = std::stod(cell.coordinates.front().second);
      if (ok) best_meeting_budget = scrub;
      table.add_row({cell.coordinates.front().second,
                     util::format_fixed(total, 1),
                     util::format_fixed(cell.sem_per_1000, 1),
                     ok ? "yes" : "no"});
    }
    table.print_text(std::cout);

    if (best_meeting_budget > 0.0) {
      std::cout << "\nRecommendation: scrub about every "
                << best_meeting_budget
                << " h — the longest period inside the data-loss budget "
                   "(longer scrubs cost less foreground bandwidth).\n";
    } else {
      std::cout << "\nNo tested scrub period meets the budget: consider RAID6 "
                   "(see the raid_group_planner example) or a lower "
                   "read-error-rate drive.\n";
    }
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
