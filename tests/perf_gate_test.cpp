// The CI perf gate (bench/perf_gate.h) used to crash on a schema-v1 baseline
// or a renamed benchmark, bricking CI until someone touched the committed
// artifact. These tests pin the intended asymmetry: baseline problems
// degrade to named skips with warnings, candidate problems still fail.
#include "perf_gate.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "util/error.h"

namespace raidrel::bench {
namespace {

/// All three default-watched benchmarks; LongTail is pinned at a fixed
/// throughput so most tests exercise the other two without noise.
std::string artifact(const std::string& schema, double base_tps,
                     double full_tps) {
  std::string s = "{\"schema\": \"" + schema + "\", \"benchmarks\": [";
  s += "{\"name\": \"BM_GroupMission_BaseCase\", \"trials_per_second\": " +
       std::to_string(base_tps) + "},";
  s += "{\"name\": \"BM_GroupMission_LongTail\", \"trials_per_second\": "
       "2000.0},";
  s += "{\"name\": \"BM_FullRun_MultiThreaded\", \"trials_per_second\": " +
       std::to_string(full_tps) + "}";
  s += "]}";
  return s;
}

constexpr const char* kV2 = "raidrel-bench-perf/2";

TEST(PerfGate, DefaultWatchedSetCoversTheEngineMissionBenchmarks) {
  const auto watched = default_watched_benchmarks();
  ASSERT_EQ(watched.size(), 3u);
  EXPECT_EQ(watched[0], "BM_GroupMission_BaseCase");
  EXPECT_EQ(watched[1], "BM_GroupMission_LongTail");
  EXPECT_EQ(watched[2], "BM_FullRun_MultiThreaded");
}

TEST(PerfGate, CleanPass) {
  const auto report = run_perf_gate(artifact(kV2, 1000.0, 500.0),
                                    artifact(kV2, 990.0, 505.0));
  EXPECT_FALSE(report.failed);
  EXPECT_FALSE(report.degraded);
  ASSERT_EQ(report.checks.size(), 3u);
  for (const auto& check : report.checks) {
    EXPECT_EQ(check.status, PerfGateCheck::Status::kPass) << check.name;
    EXPECT_GT(check.ratio, 0.0);
    EXPECT_TRUE(check.note.empty());
  }
}

TEST(PerfGate, SchemaV1BaselineStillComparable) {
  // v1 artifacts always carry trials_per_second; the gate must read them,
  // not reject them.
  const auto report = run_perf_gate(artifact("raidrel-bench-perf/1", 1000.0,
                                             500.0),
                                    artifact(kV2, 1000.0, 500.0));
  EXPECT_FALSE(report.failed);
  EXPECT_FALSE(report.degraded);
}

TEST(PerfGate, RegressionFailsWithNamedNote) {
  const auto report = run_perf_gate(artifact(kV2, 1000.0, 500.0),
                                    artifact(kV2, 600.0, 500.0));
  EXPECT_TRUE(report.failed);
  ASSERT_EQ(report.checks.size(), 3u);
  EXPECT_EQ(report.checks[0].status, PerfGateCheck::Status::kFail);
  EXPECT_NE(report.checks[0].note.find("regressed 40.0%"), std::string::npos)
      << report.checks[0].note;
  EXPECT_EQ(report.checks[1].status, PerfGateCheck::Status::kPass);
  EXPECT_EQ(report.checks[2].status, PerfGateCheck::Status::kPass);
}

TEST(PerfGate, RegressionWithinBudgetPasses) {
  PerfGateOptions opt;
  opt.max_regression = 0.5;
  const auto report = run_perf_gate(artifact(kV2, 1000.0, 500.0),
                                    artifact(kV2, 600.0, 500.0), opt);
  EXPECT_FALSE(report.failed);
}

TEST(PerfGate, UnsupportedBaselineSchemaDegradesToSkips) {
  // The crash case this gate was rewritten for: an old (or future)
  // baseline schema must not brick CI — every check becomes a named skip
  // pointing at the committed baseline, and the gate passes degraded.
  const auto report = run_perf_gate(artifact("raidrel-bench-perf/0", 1000.0,
                                             500.0),
                                    artifact(kV2, 1000.0, 500.0));
  EXPECT_FALSE(report.failed);
  EXPECT_TRUE(report.degraded);
  ASSERT_EQ(report.checks.size(), 3u);
  for (const auto& check : report.checks) {
    EXPECT_EQ(check.status, PerfGateCheck::Status::kSkip) << check.name;
    EXPECT_NE(check.note.find("refresh the committed baseline"),
              std::string::npos)
        << check.note;
  }
}

TEST(PerfGate, BaselineMissingBenchmarkSkipsThatCheckOnly) {
  // A watched benchmark the baseline never measured (e.g. just renamed):
  // skip it with a warning, keep gating the rest.
  const std::string baseline =
      "{\"schema\": \"raidrel-bench-perf/2\", \"benchmarks\": ["
      "{\"name\": \"BM_GroupMission_BaseCase\", "
      "\"trials_per_second\": 1000.0}]}";
  const auto report = run_perf_gate(baseline, artifact(kV2, 1000.0, 500.0));
  EXPECT_FALSE(report.failed);
  EXPECT_TRUE(report.degraded);
  ASSERT_EQ(report.checks.size(), 3u);
  EXPECT_EQ(report.checks[0].status, PerfGateCheck::Status::kPass);
  EXPECT_EQ(report.checks[1].status, PerfGateCheck::Status::kSkip);
  EXPECT_NE(report.checks[1].note.find("baseline never measured"),
            std::string::npos);
  EXPECT_EQ(report.checks[2].status, PerfGateCheck::Status::kSkip);
}

TEST(PerfGate, ZeroBaselineThroughputSkips) {
  // v1 wrote trials_per_second: 0 for "not reported" — same treatment as
  // an absent benchmark.
  const auto report = run_perf_gate(artifact(kV2, 1000.0, 0.0),
                                    artifact(kV2, 1000.0, 500.0));
  EXPECT_FALSE(report.failed);
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.checks[2].status, PerfGateCheck::Status::kSkip);
}

TEST(PerfGate, CandidateMissingBenchmarkFails) {
  // The candidate is this build's own artifact: a vanished watched
  // measurement is exactly the regression the gate exists to catch.
  const std::string candidate =
      "{\"schema\": \"raidrel-bench-perf/2\", \"benchmarks\": ["
      "{\"name\": \"BM_GroupMission_BaseCase\", "
      "\"trials_per_second\": 1000.0}]}";
  const auto report = run_perf_gate(artifact(kV2, 1000.0, 500.0), candidate);
  EXPECT_TRUE(report.failed);
  EXPECT_EQ(report.checks[1].status, PerfGateCheck::Status::kFail);
  EXPECT_NE(report.checks[1].note.find("candidate is missing"),
            std::string::npos);
  EXPECT_EQ(report.checks[2].status, PerfGateCheck::Status::kFail);
}

TEST(PerfGate, UnsupportedCandidateSchemaThrows) {
  EXPECT_THROW(run_perf_gate(artifact(kV2, 1000.0, 500.0),
                             artifact("raidrel-bench-perf/4", 1000.0, 500.0)),
               ModelError);
}

TEST(PerfGate, MalformedJsonThrows) {
  EXPECT_THROW(run_perf_gate("{not json", artifact(kV2, 1.0, 1.0)),
               ModelError);
  EXPECT_THROW(run_perf_gate(artifact(kV2, 1.0, 1.0), "{not json"),
               ModelError);
}

/// A v3 artifact whose BaseCase entry carries code-path tags; the
/// LongTail and MultiThreaded entries stay untagged (wildcard).
std::string tagged_artifact(double base_tps, const std::string& isa,
                            const std::string& tier,
                            std::uint64_t batch_width = 64,
                            std::uint64_t numa_nodes = 0) {
  std::string s = "{\"schema\": \"raidrel-bench-perf/3\", \"benchmarks\": [";
  s += "{\"name\": \"BM_GroupMission_BaseCase\", \"trials_per_second\": " +
       std::to_string(base_tps);
  if (!isa.empty()) s += ", \"isa\": \"" + isa + "\"";
  if (!tier.empty()) s += ", \"math_tier\": \"" + tier + "\"";
  if (batch_width != 0) {
    s += ", \"batch_width\": " + std::to_string(batch_width);
  }
  if (numa_nodes != 0) {
    s += ", \"numa_nodes\": " + std::to_string(numa_nodes);
  }
  s += "},";
  s += "{\"name\": \"BM_GroupMission_LongTail\", \"trials_per_second\": "
       "2000.0},";
  s += "{\"name\": \"BM_FullRun_MultiThreaded\", \"trials_per_second\": "
       "500.0}";
  s += "]}";
  return s;
}

TEST(PerfGate, SchemaV3LikeForLikePasses) {
  const auto report =
      run_perf_gate(tagged_artifact(1000.0, "avx512", "exact"),
                    tagged_artifact(990.0, "avx512", "exact"));
  EXPECT_FALSE(report.failed);
  EXPECT_FALSE(report.degraded);
}

TEST(PerfGate, IsaMismatchSkipsInsteadOfFailing) {
  // Baseline measured on an AVX-512 box, candidate running the generic
  // backend at half the speed: not a regression — a different code
  // path. The gate must degrade to a named skip, not brick CI.
  const auto report =
      run_perf_gate(tagged_artifact(1000.0, "avx512", "exact"),
                    tagged_artifact(500.0, "generic", "exact"));
  EXPECT_FALSE(report.failed);
  EXPECT_TRUE(report.degraded);
  ASSERT_EQ(report.checks.size(), 3u);
  EXPECT_EQ(report.checks[0].status, PerfGateCheck::Status::kSkip);
  EXPECT_NE(report.checks[0].note.find("not like-for-like on isa"),
            std::string::npos)
      << report.checks[0].note;
  EXPECT_NE(report.checks[0].note.find("avx512"), std::string::npos);
  // The untagged LongTail and MultiThreaded entries still gate normally.
  EXPECT_EQ(report.checks[1].status, PerfGateCheck::Status::kPass);
  EXPECT_EQ(report.checks[2].status, PerfGateCheck::Status::kPass);
}

TEST(PerfGate, NumaNodeCountMismatchSkipsInsteadOfFailing) {
  // Baseline archived from a 2-node box with workers pinned per node,
  // candidate running single-node: the throughput delta is topology, not
  // code — same treatment as an ISA mismatch.
  const auto report =
      run_perf_gate(tagged_artifact(1000.0, "avx512", "exact", 64, 2),
                    tagged_artifact(500.0, "avx512", "exact", 64, 1));
  EXPECT_FALSE(report.failed);
  EXPECT_TRUE(report.degraded);
  ASSERT_EQ(report.checks.size(), 3u);
  EXPECT_EQ(report.checks[0].status, PerfGateCheck::Status::kSkip);
  EXPECT_NE(report.checks[0].note.find("numa_nodes (baseline 2, candidate 1)"),
            std::string::npos)
      << report.checks[0].note;
}

TEST(PerfGate, AbsentNumaTagComparesAsWildcard) {
  // A pre-NUMA baseline carries no numa_nodes tag: the candidate's tag
  // alone must not block the comparison — a real 40% regression still
  // fails, and a clean like-for-like run still passes.
  const auto regressed =
      run_perf_gate(tagged_artifact(1000.0, "avx512", "exact", 64, 0),
                    tagged_artifact(600.0, "avx512", "exact", 64, 4));
  EXPECT_TRUE(regressed.failed);
  EXPECT_EQ(regressed.checks[0].status, PerfGateCheck::Status::kFail);

  const auto clean =
      run_perf_gate(tagged_artifact(1000.0, "avx512", "exact", 64, 0),
                    tagged_artifact(990.0, "avx512", "exact", 64, 4));
  EXPECT_FALSE(clean.failed);
  EXPECT_FALSE(clean.degraded);
}

TEST(PerfGate, MathTierAndWidthMismatchesAlsoSkip) {
  const auto tiers = run_perf_gate(tagged_artifact(1000.0, "avx512", "fast"),
                                   tagged_artifact(400.0, "avx512", "exact"));
  EXPECT_FALSE(tiers.failed);
  ASSERT_GE(tiers.checks.size(), 1u);
  EXPECT_EQ(tiers.checks[0].status, PerfGateCheck::Status::kSkip);
  EXPECT_NE(tiers.checks[0].note.find("math_tier"), std::string::npos);

  const auto widths =
      run_perf_gate(tagged_artifact(1000.0, "avx512", "exact", 64),
                    tagged_artifact(400.0, "avx512", "exact", 8));
  EXPECT_EQ(widths.checks[0].status, PerfGateCheck::Status::kSkip);
  EXPECT_NE(widths.checks[0].note.find("batch_width"), std::string::npos);
}

TEST(PerfGate, UntaggedBaselineComparesAsWildcard) {
  // A v2-era baseline has no tags: the candidate's tags alone must not
  // block the comparison — a real 40% regression still fails.
  const auto report = run_perf_gate(
      artifact(kV2, 1000.0, 500.0), tagged_artifact(600.0, "avx512", "exact"));
  EXPECT_TRUE(report.failed);
  EXPECT_EQ(report.checks[0].status, PerfGateCheck::Status::kFail);
}

TEST(PerfGate, CustomWatchedListAndValidation) {
  PerfGateOptions opt;
  opt.watched = {"BM_GroupMission_BaseCase"};
  const auto report = run_perf_gate(artifact(kV2, 1000.0, 500.0),
                                    artifact(kV2, 1000.0, 500.0), opt);
  ASSERT_EQ(report.checks.size(), 1u);
  EXPECT_EQ(report.checks[0].name, "BM_GroupMission_BaseCase");

  PerfGateOptions bad;
  bad.max_regression = 0.0;
  EXPECT_THROW(run_perf_gate(artifact(kV2, 1.0, 1.0), artifact(kV2, 1.0, 1.0),
                             bad),
               ModelError);
}

}  // namespace
}  // namespace raidrel::bench
