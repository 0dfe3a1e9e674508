// Extension — the check-drive tradeoff. Mann et al.'s design question
// behind "eventually, RAID 6 will be required": when reliability falls
// short, is the better lever a faster rebuild or another check drive? We
// answer it with the general m-fault-tolerant engine (docs/MODEL.md §15):
// a fixed 7-data-drive group at m = 1..4 check drives, each evaluated at
// the base rebuild time and at half the rebuild time, on a compressed
// timescale (short drive lifetimes, long rebuilds, busy latent-defect
// process) so every cell accumulates countable DDFs.
//
// The bench is also a gate: it exits non-zero unless (a) DDFs fall
// monotonically in m at the base rebuild time and (b) one *added* check
// drive at the base rebuild time beats *halving* the rebuild time at m
// check drives — the crossover that makes redundancy, not rebuild speed,
// the stronger lever once latent defects are in the model. Both checks
// carry a 3-sigma allowance and skip cells too sparse to compare.
//
// --perf-json <path> additionally records each cell's engine throughput
// as a raidrel-bench-perf/3 artifact (per-trial time, config digest,
// lane width, SIMD backend, math tier) so CI can archive and gate it.
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_support.h"
#include "core/model.h"
#include "report/table.h"
#include "sim/lane_ops.h"
#include "sim/latent_credit.h"
#include "sim/runner.h"
#include "util/cli.h"
#include "util/cpu_features.h"
#include "util/strings.h"

namespace {

using namespace raidrel;

constexpr unsigned kDataDrives = 7;
constexpr unsigned kMaxRedundancy = 4;

// Compressed timescale: lifetimes ~4,000 h against ~100 h rebuilds and a
// busy latent-defect process, over a 20,000 h mission. The ratios (not
// the absolute numbers) are what the tradeoff depends on; stressing them
// keeps every cell's DDF count measurable at bench trial budgets.
core::ScenarioConfig stress_case(unsigned redundancy, bool halved_restore) {
  core::ScenarioConfig s;
  s.name = "check-drives " + std::to_string(kDataDrives) + "+" +
           std::to_string(redundancy) +
           (halved_restore ? " fast-rebuild" : "");
  s.group_drives = kDataDrives + redundancy;
  s.redundancy = redundancy;
  s.mission_hours = 20000.0;
  s.ttop = stats::WeibullParams{0.0, 4000.0, 1.2};
  s.ttr = halved_restore ? stats::WeibullParams{3.0, 50.0, 2.0}
                         : stats::WeibullParams{6.0, 100.0, 2.0};
  s.ttld = stats::WeibullParams{0.0, 2000.0, 1.0};
  s.ttscrub = stats::WeibullParams{6.0, 300.0, 3.0};
  return s;
}

struct Cell {
  unsigned redundancy = 0;
  bool halved_restore = false;
  double ddfs_per_1000 = 0.0;
  double sem_per_1000 = 0.0;
  double events = 0.0;  ///< counted DDFs behind the estimate
};

/// Too few counted DDFs to support a comparison either way.
constexpr double kMinEvents = 10.0;

bool significantly_above(const Cell& a, const Cell& b) {
  // a > b beyond a 3-sigma allowance on both estimates.
  return a.ddfs_per_1000 >
         b.ddfs_per_1000 + 3.0 * (a.sem_per_1000 + b.sem_per_1000);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv, /*default_trials=*/40000,
                                        {"perf-json"});
  const util::CliArgs args(argc, argv);
  const std::string perf_json_path = args.get_string("perf-json", "");
  bench::print_header(
      "Check-drive tradeoff — m-fault-tolerant groups vs rebuild speed "
      "(7 data drives, m = 1..4, base vs halved rebuild time)",
      "extension of \"eventually, RAID 6 will be required\" to general "
      "erasure codes",
      opt);

  std::vector<Cell> cells;
  std::vector<bench::PerfRecord> perf;
  for (unsigned m = 1; m <= kMaxRedundancy; ++m) {
    for (const bool halved : {false, true}) {
      const core::ScenarioConfig scenario = stress_case(m, halved);
      const auto t0 = std::chrono::steady_clock::now();
      const auto res = core::evaluate_scenario(scenario, opt.run_options());
      const auto t1 = std::chrono::steady_clock::now();

      Cell cell;
      cell.redundancy = m;
      cell.halved_restore = halved;
      cell.ddfs_per_1000 = res.run.total_ddfs_per_1000();
      cell.sem_per_1000 = res.run.total_ddfs_per_1000_sem();
      cell.events = cell.ddfs_per_1000 / 1000.0 *
                    static_cast<double>(res.run.trials());
      cells.push_back(cell);

      const double elapsed_ns =
          std::chrono::duration<double, std::nano>(t1 - t0).count();
      bench::PerfRecord rec;
      rec.name = "check_drives_m" + std::to_string(m) +
                 (halved ? "_fast" : "_base");
      rec.iterations = res.run.trials();
      rec.real_time_ns = elapsed_ns / static_cast<double>(res.run.trials());
      rec.trials_per_second =
          static_cast<double>(res.run.trials()) / (elapsed_ns * 1e-9);
      const raid::GroupConfig group = scenario.to_group_config();
      rec.config_digest = sim::config_digest(group);
      rec.estimator = sim::latent_credit_exclusion(group)
                          ? sim::kEventsEstimator
                          : sim::kLatentCreditEstimator;
      rec.threads = opt.threads;
      rec.batch_width = sim::kDefaultBatchWidth;
      rec.isa = util::isa_name(sim::lane_ops().isa);
      rec.math_tier = sim::math_tier_name(sim::MathTier::kExact);
      perf.push_back(std::move(rec));
    }
  }

  report::Table table({"layout", "rebuild", "DDFs/1000 (mission)", "+/- SEM",
                       "DDF events"});
  for (const Cell& c : cells) {
    table.add_row({std::to_string(kDataDrives) + "+" +
                       std::to_string(c.redundancy),
                   c.halved_restore ? "halved" : "base",
                   util::format_general(c.ddfs_per_1000, 4),
                   util::format_general(c.sem_per_1000, 2),
                   util::format_fixed(c.events, 0)});
  }
  table.print_text(std::cout);
  if (opt.csv) table.print_csv(std::cout);

  auto cell_at = [&](unsigned m, bool halved) -> const Cell& {
    return cells[(m - 1) * 2 + (halved ? 1 : 0)];
  };

  int violations = 0;
  for (unsigned m = 1; m < kMaxRedundancy; ++m) {
    const Cell& base_m = cell_at(m, false);
    const Cell& fast_m = cell_at(m, true);
    const Cell& added = cell_at(m + 1, false);
    if (base_m.events < kMinEvents) {
      std::cout << "note: " << kDataDrives << "+" << m << " too sparse ("
                << base_m.events << " DDFs) — comparisons skipped; raise "
                << "--trials to populate it\n";
      continue;
    }
    if (significantly_above(added, base_m)) {
      std::cout << "VIOLATION: adding a check drive (" << kDataDrives << "+"
                << m + 1 << ") did not reduce DDFs vs " << kDataDrives << "+"
                << m << "\n";
      ++violations;
    }
    if (fast_m.events >= kMinEvents && significantly_above(added, fast_m)) {
      std::cout << "VIOLATION: one added check drive (" << kDataDrives << "+"
                << m + 1 << " at base rebuild) lost to halving the rebuild "
                << "time at " << kDataDrives << "+" << m << "\n";
      ++violations;
    }
  }

  std::cout << "\nReading the table: halving the rebuild time shrinks only "
               "the operational-overlap window, while the latent-defect "
               "exposure — the paper's dominant term — is untouched; an "
               "added check drive discounts *both* by another order of "
               "coincidence. That is why every base-rebuild row beats the "
               "halved-rebuild row one check drive below it, and why check "
               "drives, not rebuild speed, are the stronger lever once "
               "latent defects are modeled.\n";

  if (!perf_json_path.empty()) {
    std::ofstream out(perf_json_path);
    if (!out) {
      std::cerr << "cannot write perf artifact: " << perf_json_path << "\n";
      return 1;
    }
    bench::write_perf_json(out, perf);
    std::cout << "perf artifact: " << perf_json_path << "\n";
  }

  if (violations > 0) {
    std::cerr << violations << " tradeoff violation(s) — the added-check-"
                               "drive crossover did not reproduce.\n";
    return 1;
  }
  return 0;
}
