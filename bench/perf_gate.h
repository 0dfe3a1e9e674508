// CI performance-gate logic (the policy behind bench/perf_gate_main.cpp).
//
// The gate compares a freshly measured BENCH_perf.json against the
// committed baseline and fails when a watched engine benchmark's
// throughput (trials per second) regresses by more than the allowed
// fraction. The asymmetry is deliberate:
//
//  - Problems on the BASELINE side — an unsupported (e.g. ancient or
//    future) schema, a watched benchmark that the committed artifact
//    never measured, a zero throughput — degrade that check to a named
//    skip-with-warning. The committed baseline evolves slowly; a rename
//    or schema bump must not brick CI until someone refreshes it, it
//    must show up as a loud warning.
//  - Problems on the CANDIDATE side still fail. The candidate is what
//    this very build produced; a watched measurement vanishing from it
//    is exactly the regression the gate exists to catch.
//
// The logic is a pure function of the two documents, so tests can drive
// every degradation path without touching the filesystem.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace raidrel::bench {

struct PerfGateOptions {
  /// Allowed throughput drop as a fraction (0.25 = candidate may be up
  /// to 25% slower than baseline before the gate fails).
  double max_regression = 0.25;
  /// Benchmarks to compare; empty selects the default watched set
  /// (the engine mission benchmarks: base case, long tail, full run).
  std::vector<std::string> watched;
};

/// Outcome of one watched benchmark.
struct PerfGateCheck {
  enum class Status { kPass, kFail, kSkip };

  std::string name;
  Status status = Status::kPass;
  double baseline_tps = 0.0;
  double candidate_tps = 0.0;
  double ratio = 0.0;  ///< candidate/baseline; 0 when skipped or failed
  std::string note;    ///< human-readable warning or failure reason
};

struct PerfGateReport {
  std::vector<PerfGateCheck> checks;  ///< one per watched benchmark
  /// True when any check failed — the gate's exit-1 condition.
  bool failed = false;
  /// True when any check was skipped: the gate passed but measured less
  /// than it was asked to. CI logs should surface the notes.
  bool degraded = false;
};

/// The default watched set.
std::vector<std::string> default_watched_benchmarks();

/// Run the gate over two perf-artifact JSON documents (the *text*, not
/// paths). Throws ModelError when either document is not valid JSON or
/// the candidate's schema is unsupported; an unsupported *baseline*
/// schema skips every check instead (see header comment).
PerfGateReport run_perf_gate(std::string_view baseline_json,
                             std::string_view candidate_json,
                             const PerfGateOptions& options = {});

}  // namespace raidrel::bench
