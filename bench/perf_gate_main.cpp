// CI performance gate: compare a freshly measured BENCH_perf.json against
// the committed baseline and fail when a watched engine benchmark's
// throughput (trials per second) regresses by more than the allowed
// fraction. Throughput is the comparison axis — per-iteration wall time
// changed meaning when the mission benchmarks moved to lockstep lanes
// (one iteration = one lane), while trials/sec stays comparable across
// every engine shape and batch width.
//
// Usage:
//   perf_gate <baseline.json> <candidate.json> [--max-regression=0.25]
//             [--bench=<name> ...]
//
// All comparison policy — including the baseline/candidate asymmetry
// (baseline problems degrade to named skips, candidate problems fail) —
// lives in perf_gate.h; this binary only does file I/O and printing.
//
// Exit status: 0 = within budget (possibly with skip warnings),
// 1 = regression or malformed input. Improvements are reported but never
// fail the gate (the committed baseline is refreshed deliberately, not on
// every green run).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "perf_gate.h"
#include "util/error.h"

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw raidrel::ModelError("cannot read perf artifact: " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  raidrel::bench::PerfGateOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--max-regression=", 17) == 0) {
      options.max_regression = std::atof(argv[i] + 17);
    } else if (std::strncmp(argv[i], "--bench=", 8) == 0) {
      options.watched.emplace_back(argv[i] + 8);
    } else {
      paths.emplace_back(argv[i]);
    }
  }
  if (paths.size() != 2 || options.max_regression <= 0.0) {
    std::fprintf(stderr,
                 "usage: perf_gate <baseline.json> <candidate.json> "
                 "[--max-regression=0.25] [--bench=<name> ...]\n");
    return 1;
  }

  try {
    const raidrel::bench::PerfGateReport report = raidrel::bench::run_perf_gate(
        slurp(paths[0]), slurp(paths[1]), options);
    for (const auto& check : report.checks) {
      using Status = raidrel::bench::PerfGateCheck::Status;
      switch (check.status) {
        case Status::kPass:
          std::printf("%-32s baseline %12.0f/s candidate %12.0f/s (%.2fx)\n",
                      check.name.c_str(), check.baseline_tps,
                      check.candidate_tps, check.ratio);
          break;
        case Status::kSkip:
          std::fprintf(stderr, "perf_gate: WARNING: %s %s\n",
                       check.name.c_str(), check.note.c_str());
          break;
        case Status::kFail:
          std::fprintf(stderr,
                       "perf_gate: %s %s (baseline %.0f/s, candidate "
                       "%.0f/s)\n",
                       check.name.c_str(), check.note.c_str(),
                       check.baseline_tps, check.candidate_tps);
          break;
      }
    }
    return report.failed ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_gate: %s\n", e.what());
    return 1;
  }
}
