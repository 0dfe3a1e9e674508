#include "perf_gate.h"

#include <cstdio>

#include "obs/json_reader.h"
#include "util/error.h"

namespace raidrel::bench {

namespace {

bool supported_schema(const std::string& schema) {
  // v1 always wrote a trials_per_second field (0 meaning "not
  // reported"); v2 omits the field entirely for microbenchmarks; v3
  // normalizes real_time_ns per work item and tags engine benchmarks
  // with isa / math_tier / batch_width. All are readable through the
  // same accessors below — the gate compares trials_per_second, which
  // has always been per-item.
  return schema == "raidrel-bench-perf/1" ||
         schema == "raidrel-bench-perf/2" ||
         schema == "raidrel-bench-perf/3";
}

/// One side's measurement of a watched benchmark: throughput plus the
/// v3 code-path tags (empty / zero when untagged — older schemas or
/// microbenchmarks — which compares as a wildcard).
struct BenchEntry {
  double tps = 0.0;
  std::string isa;
  std::string math_tier;
  std::uint64_t batch_width = 0;
  std::uint64_t numa_nodes = 0;
};

BenchEntry find_bench(const obs::JsonValue& benchmarks,
                      const std::string& name) {
  BenchEntry entry;
  for (const obs::JsonValue& bench : benchmarks.items()) {
    if (bench.get("name").as_string() != name) continue;
    if (const obs::JsonValue* tps = bench.find("trials_per_second")) {
      entry.tps = tps->as_double();
    }
    if (const obs::JsonValue* isa = bench.find("isa")) {
      entry.isa = isa->as_string();
    }
    if (const obs::JsonValue* tier = bench.find("math_tier")) {
      entry.math_tier = tier->as_string();
    }
    if (const obs::JsonValue* width = bench.find("batch_width")) {
      entry.batch_width = static_cast<std::uint64_t>(width->as_double());
    }
    if (const obs::JsonValue* nodes = bench.find("numa_nodes")) {
      entry.numa_nodes = static_cast<std::uint64_t>(nodes->as_double());
    }
    return entry;
  }
  return entry;
}

/// Like-for-like guard: when BOTH sides carry a code-path tag and the
/// values differ, the comparison is meaningless (a slower ISA is not a
/// regression) and the check must degrade to a named skip. An absent
/// tag — an older-schema baseline, or a microbenchmark — is a wildcard.
std::string tag_mismatch(const BenchEntry& baseline,
                         const BenchEntry& candidate) {
  if (!baseline.isa.empty() && !candidate.isa.empty() &&
      baseline.isa != candidate.isa) {
    return "isa (baseline " + baseline.isa + ", candidate " + candidate.isa +
           ")";
  }
  if (!baseline.math_tier.empty() && !candidate.math_tier.empty() &&
      baseline.math_tier != candidate.math_tier) {
    return "math_tier (baseline " + baseline.math_tier + ", candidate " +
           candidate.math_tier + ")";
  }
  if (baseline.batch_width != 0 && candidate.batch_width != 0 &&
      baseline.batch_width != candidate.batch_width) {
    return "batch_width (baseline " + std::to_string(baseline.batch_width) +
           ", candidate " + std::to_string(candidate.batch_width) + ")";
  }
  // A NUMA-pinned multi-node run against a single-node one is a topology
  // comparison, not a code comparison; absent (0) — an older artifact —
  // stays a wildcard like every other tag.
  if (baseline.numa_nodes != 0 && candidate.numa_nodes != 0 &&
      baseline.numa_nodes != candidate.numa_nodes) {
    return "numa_nodes (baseline " + std::to_string(baseline.numa_nodes) +
           ", candidate " + std::to_string(candidate.numa_nodes) + ")";
  }
  return {};
}

}  // namespace

std::vector<std::string> default_watched_benchmarks() {
  return {"BM_GroupMission_BaseCase", "BM_GroupMission_LongTail",
          "BM_FullRun_MultiThreaded"};
}

PerfGateReport run_perf_gate(std::string_view baseline_json,
                             std::string_view candidate_json,
                             const PerfGateOptions& options) {
  RAIDREL_REQUIRE(options.max_regression > 0.0,
                  "max_regression must be positive");

  const obs::JsonValue baseline =
      obs::parse_json(std::string(baseline_json));
  const obs::JsonValue candidate =
      obs::parse_json(std::string(candidate_json));

  const std::string candidate_schema = candidate.get("schema").as_string();
  if (!supported_schema(candidate_schema)) {
    throw ModelError("candidate perf artifact has unsupported schema " +
                     candidate_schema);
  }
  const std::string baseline_schema = baseline.get("schema").as_string();
  const bool baseline_usable = supported_schema(baseline_schema);

  const std::vector<std::string> watched = options.watched.empty()
                                               ? default_watched_benchmarks()
                                               : options.watched;

  PerfGateReport report;
  for (const std::string& name : watched) {
    PerfGateCheck check;
    check.name = name;
    if (!baseline_usable) {
      check.status = PerfGateCheck::Status::kSkip;
      check.note = "skipped: baseline schema " + baseline_schema +
                   " is unsupported; refresh the committed baseline";
      report.checks.push_back(std::move(check));
      continue;
    }
    const BenchEntry base_entry =
        find_bench(baseline.get("benchmarks"), name);
    const BenchEntry cand_entry =
        find_bench(candidate.get("benchmarks"), name);
    check.baseline_tps = base_entry.tps;
    check.candidate_tps = cand_entry.tps;
    if (check.candidate_tps <= 0.0) {
      // The candidate is this build's own measurement: a watched
      // benchmark vanishing from it is a failure, never a skip.
      check.status = PerfGateCheck::Status::kFail;
      check.note = "candidate is missing a positive trials_per_second";
    } else if (check.baseline_tps <= 0.0) {
      check.status = PerfGateCheck::Status::kSkip;
      check.note = "skipped: baseline never measured this benchmark; "
                   "refresh the committed baseline";
    } else if (const std::string mismatch =
                   tag_mismatch(base_entry, cand_entry);
               !mismatch.empty()) {
      // Unlike code paths (baseline measured on hardware or at a tier
      // the candidate did not run): a throughput delta is expected, not
      // a regression — degrade to a named skip, as baseline-side
      // problems do.
      check.status = PerfGateCheck::Status::kSkip;
      check.note = "skipped: not like-for-like on " + mismatch +
                   "; refresh the committed baseline on this hardware";
    } else {
      check.ratio = check.candidate_tps / check.baseline_tps;
      if (check.ratio < 1.0 - options.max_regression) {
        check.status = PerfGateCheck::Status::kFail;
        char buf[96];
        std::snprintf(buf, sizeof buf, "regressed %.1f%% (budget %.1f%%)",
                      (1.0 - check.ratio) * 100.0,
                      options.max_regression * 100.0);
        check.note = buf;
      }
    }
    report.checks.push_back(std::move(check));
  }
  for (const PerfGateCheck& check : report.checks) {
    if (check.status == PerfGateCheck::Status::kFail) report.failed = true;
    if (check.status == PerfGateCheck::Status::kSkip) report.degraded = true;
  }
  return report;
}

}  // namespace raidrel::bench
