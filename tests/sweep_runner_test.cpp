#include "sweep/sweep_runner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault_injection.h"
#include "obs/json_reader.h"
#include "support/hostile_bytes.h"
#include "util/error.h"

namespace raidrel::sweep {
namespace {

// Small, busy scenario so 600-trial cells finish in milliseconds. Its
// exponential TTLd puts every cell in the latent-credit scope;
// latent_beta != 1 keeps the cells on the event path.
core::ScenarioConfig small_base(double latent_beta = 1.0) {
  core::ScenarioConfig s;
  s.group_drives = 4;
  s.mission_hours = 20000.0;
  s.ttop = {0.0, 4000.0, 1.2};
  s.ttr = {6.0, 100.0, 2.0};
  s.ttld = stats::WeibullParams{0.0, 2000.0, latent_beta};
  s.ttscrub = stats::WeibullParams{6.0, 300.0, 3.0};
  return s;
}

SweepSpec small_spec(double latent_beta = 1.0) {
  SweepSpec spec("runner-test", small_base(latent_beta));
  spec.add_restore_eta_axis({12.0, 48.0});
  spec.add_group_size_axis({4, 6});
  return spec;
}

// Unreachable relative target: every cell deterministically runs out the
// 600-trial budget, so results depend only on (config, seed).
SweepOptions fast_options(const std::string& manifest = "") {
  SweepOptions opt;
  opt.convergence.target_relative_sem = 1e-9;
  opt.convergence.batch_trials = 300;
  opt.convergence.min_trials = 300;
  opt.convergence.max_trials = 600;
  opt.convergence.seed = 42;
  opt.threads = 2;
  opt.manifest_path = manifest;
  return opt;
}

std::string temp_manifest(const std::string& name) {
  const std::string path = ::testing::TempDir() + "raidrel_" + name + ".json";
  for (const char* suffix : {"", ".journal", ".tmp"}) {
    std::remove((path + suffix).c_str());
  }
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Offsets just past each record's newline.
std::vector<std::size_t> record_ends(const std::string& journal) {
  std::vector<std::size_t> ends;
  for (std::size_t i = 0; i < journal.size(); ++i) {
    if (journal[i] == '\n') ends.push_back(i + 1);
  }
  return ends;
}

void expect_same_cells(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].result_digest, b.cells[i].result_digest) << i;
    EXPECT_DOUBLE_EQ(a.cells[i].total_ddfs_per_1000,
                     b.cells[i].total_ddfs_per_1000)
        << i;
    EXPECT_EQ(a.cells[i].trials, b.cells[i].trials) << i;
    EXPECT_EQ(a.cells[i].label, b.cells[i].label) << i;
  }
  EXPECT_EQ(a.sweep_digest, b.sweep_digest);
}

TEST(SweepRunner, RunsEveryCellWithoutAManifest) {
  const auto result = SweepRunner(fast_options()).run(small_spec());
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.total_cells, 4u);
  EXPECT_EQ(result.simulated, 4u);
  EXPECT_EQ(result.cached, 0u);
  ASSERT_EQ(result.cells.size(), 4u);
  EXPECT_NE(result.sweep_digest, 0u);
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.trials, 600u);  // budget stop, deterministic
    EXPECT_EQ(cell.stop, "budget");
    EXPECT_GT(cell.total_ddfs_per_1000, 0.0);
    EXPECT_EQ(cell.result_digest, cell_result_digest(cell));
    EXPECT_FALSE(cell.from_cache);
  }
  // Cells in expansion order with their identity intact.
  EXPECT_EQ(result.cells[0].label, "restore=12 group=4");
  EXPECT_EQ(result.cells[3].label, "restore=48 group=6");
}

TEST(SweepRunner, ShardingIsDeterministicAcrossThreadCounts) {
  auto serial = fast_options();
  serial.threads = 1;
  auto parallel = fast_options();
  parallel.threads = 4;
  const auto a = SweepRunner(serial).run(small_spec());
  const auto b = SweepRunner(parallel).run(small_spec());
  expect_same_cells(a, b);
}

TEST(SweepRunner, BatchWidthLeavesEveryCellAndManifestByteIdentical) {
  // The lockstep lane engine must be invisible to the cache layer: cell
  // digests, sweep digest, and manifest bytes are pinned across lane
  // widths (1 = the scalar path), so cached cells stay valid when the
  // default width changes. small_spec() is latent-credited (its lanes are
  // forwarded to the scalar core); its beta_ld = 1.2 twin runs in lockstep.
  for (const double latent_beta : {1.0, 1.2}) {
    SCOPED_TRACE(latent_beta);
    const std::string scalar_path = temp_manifest("width1");
    auto scalar_opt = fast_options(scalar_path);
    scalar_opt.convergence.batch_width = 1;
    const auto scalar = SweepRunner(scalar_opt).run(small_spec(latent_beta));

    const std::string batched_path = temp_manifest("width64");
    auto batched_opt = fast_options(batched_path);
    batched_opt.convergence.batch_width = 64;
    const auto batched =
        SweepRunner(batched_opt).run(small_spec(latent_beta));

    expect_same_cells(scalar, batched);
    EXPECT_EQ(read_file(scalar_path), read_file(batched_path));
  }
}

// The ISSUE's acceptance test: interrupt a sweep after k of n cells, rerun
// with the same manifest, and only n-k cells simulate — with the final
// manifest byte-identical to an uninterrupted single pass.
TEST(SweepRunner, InterruptedSweepResumesAndMatchesSinglePassByteForByte) {
  const auto spec = small_spec();
  const std::string resumed = temp_manifest("resumed");
  const std::string single = temp_manifest("single");

  auto interrupt = fast_options(resumed);
  interrupt.max_cells = 2;  // deterministic "kill" after 2 of 4 cells
  const auto partial = SweepRunner(interrupt).run(spec);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.simulated, 2u);
  EXPECT_EQ(partial.cells.size(), 2u);
  EXPECT_EQ(partial.sweep_digest, 0u);  // incomplete sweeps have no digest

  const auto completed = SweepRunner(fast_options(resumed)).run(spec);
  EXPECT_TRUE(completed.complete);
  EXPECT_EQ(completed.cached, 2u);     // the interrupted cells came back
  EXPECT_EQ(completed.simulated, 2u);  // only the remainder ran

  const auto one_pass = SweepRunner(fast_options(single)).run(spec);
  EXPECT_EQ(one_pass.simulated, 4u);
  expect_same_cells(completed, one_pass);
  EXPECT_EQ(read_file(resumed), read_file(single));  // byte-identical
}

TEST(SweepRunner, FullyCachedRerunSimulatesNothing) {
  const auto spec = small_spec();
  const std::string path = temp_manifest("cached");
  const auto first = SweepRunner(fast_options(path)).run(spec);
  const std::string bytes = read_file(path);
  const auto second = SweepRunner(fast_options(path)).run(spec);
  EXPECT_EQ(second.simulated, 0u);
  EXPECT_EQ(second.cached, 4u);
  for (const auto& cell : second.cells) EXPECT_TRUE(cell.from_cache);
  expect_same_cells(first, second);
  EXPECT_EQ(read_file(path), bytes);  // rewrite converges to same bytes
}

TEST(SweepRunner, SeedChangeInvalidatesTheCache) {
  const auto spec = small_spec();
  const std::string path = temp_manifest("seed");
  SweepRunner(fast_options(path)).run(spec);
  auto reseeded = fast_options(path);
  reseeded.convergence.seed = 43;
  const auto result = SweepRunner(reseeded).run(spec);
  EXPECT_EQ(result.cached, 0u);  // every cell key changed
  EXPECT_EQ(result.simulated, 4u);
}

TEST(SweepRunner, NoResumeIgnoresTheCache) {
  const auto spec = small_spec();
  const std::string path = temp_manifest("noresume");
  SweepRunner(fast_options(path)).run(spec);
  auto forced = fast_options(path);
  forced.resume = false;
  const auto result = SweepRunner(forced).run(spec);
  EXPECT_EQ(result.cached, 0u);
  EXPECT_EQ(result.simulated, 4u);
}

TEST(SweepRunner, CorruptManifestFallsBackToFullResimulation) {
  const auto spec = small_spec();
  const std::string path = temp_manifest("corrupt");
  SweepRunner(fast_options(path)).run(spec);
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{ not json";
  }
  const auto result = SweepRunner(fast_options(path)).run(spec);
  EXPECT_EQ(result.cached, 0u);
  EXPECT_EQ(result.simulated, 4u);
  // And the manifest is healthy again afterwards.
  const auto root = obs::parse_json(read_file(path));
  EXPECT_EQ(root.get("schema").as_string(), "raidrel-sweep-manifest/3");
  EXPECT_EQ(root.get("cells").size(), 4u);
  EXPECT_EQ(root.get("quarantined").size(), 0u);
}

TEST(SweepRunner, TamperedCellEntriesAreRejected) {
  const auto spec = small_spec();
  const std::string path = temp_manifest("tampered");
  SweepRunner(fast_options(path)).run(spec);
  // Flip one stored trial count without updating the entry's digest.
  std::string text = read_file(path);
  const auto pos = text.find("\"trials\": 600");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 13, "\"trials\": 599");
  {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  }
  const auto result = SweepRunner(fast_options(path)).run(spec);
  // The tampered entry fails digest verification and resimulates; the
  // untouched entries still hit.
  EXPECT_EQ(result.cached, 3u);
  EXPECT_EQ(result.simulated, 1u);
  EXPECT_TRUE(result.complete);
}

TEST(SweepRunner, ManifestRecordsOptionsAndIdentity) {
  const auto spec = small_spec();
  const std::string path = temp_manifest("identity");
  SweepRunner(fast_options(path)).run(spec);
  const auto root = obs::parse_json(read_file(path));
  EXPECT_EQ(root.get("sweep").as_string(), "runner-test");
  EXPECT_EQ(root.get("total_cells").as_uint64(), 4u);
  EXPECT_EQ(root.get("options").get("seed").as_uint64(), 42u);
  EXPECT_EQ(root.get("options").get("max_trials").as_uint64(), 600u);
  const auto& cell = root.get("cells").at(0);
  EXPECT_EQ(cell.get("label").as_string(), "restore=12 group=4");
  EXPECT_EQ(cell.get("coordinates").get("restore").as_string(), "12");
  EXPECT_EQ(cell.get("coordinates").get("group").as_string(), "4");
  EXPECT_NE(cell.get("config_digest").as_uint64(), 0u);
  EXPECT_NE(cell.get("cell_key").as_uint64(), 0u);
}

TEST(SweepRunner, CellKeyDependsOnEverythingThatChangesTheResult) {
  const auto base = fast_options().convergence;
  const std::uint64_t key = cell_cache_key(123, base);
  EXPECT_EQ(cell_cache_key(123, base), key);  // stable
  EXPECT_NE(cell_cache_key(124, base), key);  // config digest
  auto opt = base;
  opt.seed = 43;
  EXPECT_NE(cell_cache_key(123, opt), key);
  opt = base;
  opt.max_trials = 1200;
  EXPECT_NE(cell_cache_key(123, opt), key);
  opt = base;
  opt.target_relative_sem = 0.05;
  EXPECT_NE(cell_cache_key(123, opt), key);
  opt = base;
  opt.bucket_hours = 365.0;
  EXPECT_NE(cell_cache_key(123, opt), key);
  opt = base;
  opt.target_ess = 500.0;
  EXPECT_NE(cell_cache_key(123, opt), key);
  opt = base;
  opt.tilt = sim::TiltSpec{2.0, 1.0};
  EXPECT_NE(cell_cache_key(123, opt), key);
  opt.tilt = sim::TiltSpec{};  // a unit tilt is the plain engine
  EXPECT_EQ(cell_cache_key(123, opt), key);
  opt = base;
  opt.math_tier = sim::MathTier::kFast;
  EXPECT_NE(cell_cache_key(123, opt), key);
  EXPECT_NE(cell_cache_key(123, base, /*latent_credit=*/true), key);
  // Threads and lane width shard or batch trials but never change a
  // cell's result: same key.
  opt = base;
  opt.threads = 7;
  opt.batch_width = 1;
  EXPECT_EQ(cell_cache_key(123, opt), key);
}

TEST(SweepRunner, LawsThatDifferPastTheSixthDigitKeyApart) {
  // Both scrub laws print as eta=168 at describe()'s 6 significant digits
  // and both cells are labelled "scrub=168"; the config digest still
  // tells them apart, so a resume never serves one's result for the other.
  SweepSpec spec("exact-laws", small_base());
  spec.add_scrub_period_axis({168.0, std::nextafter(168.0, 200.0)});
  const auto cells = spec.expand();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].label, cells[1].label);
  EXPECT_NE(cells[0].config_digest, cells[1].config_digest);

  const std::string path = temp_manifest("exactlaws");
  auto first = fast_options(path);
  first.max_cells = 1;
  ASSERT_EQ(SweepRunner(first).run(spec).cells.size(), 1u);
  const auto resumed = SweepRunner(fast_options(path)).run(spec);
  ASSERT_EQ(resumed.cells.size(), 2u);
  EXPECT_NE(resumed.cells[0].cell_key, resumed.cells[1].cell_key);
  EXPECT_EQ(resumed.cached, 1u);
  EXPECT_EQ(resumed.simulated, 1u);
  EXPECT_TRUE(resumed.cells[0].from_cache);
  EXPECT_FALSE(resumed.cells[1].from_cache);
}

TEST(SweepRunner, ResultDigestCoversTheNumericOutcome) {
  CellResult r;
  r.trials = 600;
  r.stop = "budget";
  r.total_ddfs_per_1000 = 12.5;
  const std::uint64_t d = cell_result_digest(r);
  EXPECT_EQ(cell_result_digest(r), d);
  CellResult changed = r;
  changed.total_ddfs_per_1000 = 12.5000001;
  EXPECT_NE(cell_result_digest(changed), d);
  changed = r;
  changed.latent_defects = 1;
  EXPECT_NE(cell_result_digest(changed), d);
  // Identity fields (label, index) are NOT part of the result digest:
  // renaming an axis must not invalidate numeric results.
  changed = r;
  changed.label = "renamed";
  changed.index = 99;
  EXPECT_EQ(cell_result_digest(changed), d);
}

TEST(SweepRunner, EmptyCellListIsAnError) {
  EXPECT_THROW(SweepRunner(fast_options()).run("empty", {}), ModelError);
}

// ---------------------------------------------------------------------------
// Fault tolerance. Everything below drives the failure paths through
// fault/fault_injection.h, deterministically.

// Baseline digests for small_spec() + fast_options(). An attached-but-
// empty injector must not perturb a single bit of any result. The cells
// are latent-credited; kEventBaseline* pins the same cells on the event
// path (small_spec(1.2)). Every value below was re-pinned when
// config_digest began rendering laws by their exact parameter bits and
// every key, digest and manifest field became unconditional (manifest
// schema /3); the simulated numbers did not change:
// - kBaselineCellKeys, kEventBaselineCellKeys: the config digests under
//   them moved, and each key gained its always-present ess, tilt, math
//   tier and estimator segments.
// - kBaselineCellDigests, kEventBaselineCellDigests: each result digest
//   gained its always-present op tilt, ESS, rebuild and estimator
//   segments.
// - kBaselineSweepDigest, kEventBaselineSweepDigest: they chain the cell
//   digests above.
constexpr std::uint64_t kBaselineCellDigests[4] = {
    16754878323578965301ull,  // restore=12 group=4
    1533998080148941242ull,   // restore=12 group=6
    11003665278481247434ull,  // restore=48 group=4
    16385533702041521222ull,  // restore=48 group=6
};
constexpr std::uint64_t kBaselineCellKeys[4] = {
    3601697767994869320ull,
    13151894594243438746ull,
    4675038163196845938ull,
    4050989481901480036ull,
};
constexpr std::uint64_t kBaselineSweepDigest = 11583665963883582422ull;

constexpr std::uint64_t kEventBaselineCellDigests[4] = {
    2054871272166079072ull,
    10959266066614144859ull,
    281145085149354874ull,
    553517001621486270ull,
};
constexpr std::uint64_t kEventBaselineCellKeys[4] = {
    17117550665941356392ull,
    5856977281376936952ull,
    15962403598955900804ull,
    8575400087209548838ull,
};
constexpr std::uint64_t kEventBaselineSweepDigest = 12361512031578246117ull;

void expect_baseline(const SweepResult& result) {
  ASSERT_EQ(result.cells.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(result.cells[i].result_digest, kBaselineCellDigests[i]) << i;
    EXPECT_EQ(result.cells[i].cell_key, kBaselineCellKeys[i]) << i;
    EXPECT_EQ(result.cells[i].estimator, "latent-credit") << i;
  }
  EXPECT_EQ(result.sweep_digest, kBaselineSweepDigest);
}

TEST(SweepFaults, EventPathCellsKeepTheirDigestsAndKeys) {
  const std::string path = temp_manifest("eventbaseline");
  fault::FaultInjector injector{fault::FaultPlan{}};
  auto opt = fast_options(path);
  opt.fault = &injector;
  const auto result = SweepRunner(opt).run(small_spec(1.2));
  ASSERT_EQ(result.cells.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(result.cells[i].result_digest, kEventBaselineCellDigests[i])
        << i;
    EXPECT_EQ(result.cells[i].cell_key, kEventBaselineCellKeys[i]) << i;
    EXPECT_EQ(result.cells[i].estimator, "events") << i;
    EXPECT_EQ(result.cells[i].estimator_reason,
              "latent-defect law is not exponential")
        << i;
  }
  EXPECT_EQ(result.sweep_digest, kEventBaselineSweepDigest);
  // The manifest names the estimator, and a resume serves every cell from
  // it with the same provenance.
  const auto resumed = SweepRunner(opt).run(small_spec(1.2));
  EXPECT_EQ(resumed.cached, 4u);
  EXPECT_EQ(resumed.sweep_digest, kEventBaselineSweepDigest);
  EXPECT_EQ(resumed.cells[0].estimator_reason,
            "latent-defect law is not exponential");
  const auto root = obs::parse_json(read_file(path));
  EXPECT_EQ(root.get("cells").at(0).get("estimator").as_string(), "events");
}

TEST(SweepFaults, EmptyPlanInjectorLeavesEveryDigestBitIdentical) {
  const std::string path = temp_manifest("emptyplan");
  fault::FaultInjector injector{fault::FaultPlan{}};
  auto opt = fast_options(path);
  opt.fault = &injector;
  const auto result = SweepRunner(opt).run(small_spec());
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.degraded());
  EXPECT_EQ(result.retries, 0u);
  EXPECT_EQ(result.faults_injected, 0u);
  expect_baseline(result);

  // The sites were actually traversed — the empty plan just never fired —
  // and the bytes on disk match a run with no injector at all.
  EXPECT_EQ(injector.hits("manifest_read"), 1u);
  EXPECT_EQ(injector.hits("journal_append"), 4u);  // one record per cell
  EXPECT_EQ(injector.hits("journal_sync"), 4u);
  EXPECT_EQ(injector.hits("manifest_write"), 1u);  // one compaction
  EXPECT_EQ(injector.hits("manifest_rename"), 1u);
  EXPECT_EQ(injector.hits("cell"), 4u);
  EXPECT_EQ(injector.hits("pool_task"), 2u);  // threads=2 fan-out
  EXPECT_EQ(injector.hits("runner_trial"), 4u * 600u);
  EXPECT_EQ(injector.total_injected(), 0u);

  const std::string clean = temp_manifest("emptyplan_clean");
  const auto unfaulted = SweepRunner(fast_options(clean)).run(small_spec());
  expect_baseline(unfaulted);
  EXPECT_EQ(read_file(path), read_file(clean));
}

TEST(SweepFaults, TransientCellFaultIsRetriedAndLeavesNoTrace) {
  const std::string path = temp_manifest("transient");
  fault::FaultInjector injector{
      fault::FaultPlan::parse("cell:restore=12 group=4")};
  auto opt = fast_options(path);
  opt.fault = &injector;
  const auto result = SweepRunner(opt).run(small_spec());
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.degraded());
  EXPECT_EQ(result.retries, 1u);
  EXPECT_EQ(result.faults_injected, 1u);
  expect_baseline(result);

  const std::string clean = temp_manifest("transient_clean");
  SweepRunner(fast_options(clean)).run(small_spec());
  EXPECT_EQ(read_file(path), read_file(clean));
}

// The ISSUE's quarantine acceptance test: a cell that fails every attempt
// is quarantined, every other cell completes, the manifest round-trips the
// ErrorRecord, and a clean rerun resumes to bytes identical to a pass that
// never failed.
TEST(SweepFaults, ExhaustedCellIsQuarantinedAndCleanRerunRecovers) {
  const std::string path = temp_manifest("quarantine");
  fault::FaultInjector injector{
      fault::FaultPlan::parse("cell:restore=48 group=4*9")};
  auto opt = fast_options(path);
  opt.fault = &injector;
  const auto result = SweepRunner(opt).run(small_spec());
  EXPECT_FALSE(result.complete);
  EXPECT_TRUE(result.degraded());
  EXPECT_EQ(result.failed(), 1u);
  EXPECT_EQ(result.simulated, 3u);
  EXPECT_EQ(result.cells.size(), 3u);
  EXPECT_EQ(result.faults_injected, 2u);  // both attempts of the cell
  EXPECT_EQ(result.retries, 1u);
  ASSERT_EQ(result.quarantined.size(), 1u);
  const ErrorRecord& q = result.quarantined[0];
  EXPECT_EQ(q.site, "cell");
  EXPECT_EQ(q.index, 2u);
  EXPECT_EQ(q.label, "restore=48 group=4");
  EXPECT_EQ(q.cell_key, kBaselineCellKeys[2]);
  EXPECT_EQ(q.attempts, 2u);  // the default cell_attempts budget
  EXPECT_NE(q.message.find("injected fault"), std::string::npos);

  // The manifest round-trips the quarantine record.
  const auto root = obs::parse_json(read_file(path));
  EXPECT_EQ(root.get("cells").size(), 3u);
  ASSERT_EQ(root.get("quarantined").size(), 1u);
  const auto& entry = root.get("quarantined").at(0);
  EXPECT_EQ(entry.get("site").as_string(), "cell");
  EXPECT_EQ(entry.get("index").as_uint64(), 2u);
  EXPECT_EQ(entry.get("label").as_string(), "restore=48 group=4");
  EXPECT_EQ(entry.get("cell_key").as_uint64(), kBaselineCellKeys[2]);
  EXPECT_EQ(entry.get("attempts").as_uint64(), 2u);

  // Clean resume: the quarantined cell gets a fresh chance, the three
  // completed cells come from the cache, and the final bytes match an
  // uninterrupted unfaulted pass.
  const auto resumed = SweepRunner(fast_options(path)).run(small_spec());
  EXPECT_TRUE(resumed.complete);
  EXPECT_FALSE(resumed.degraded());
  EXPECT_EQ(resumed.cached, 3u);
  EXPECT_EQ(resumed.simulated, 1u);
  expect_baseline(resumed);

  const std::string clean = temp_manifest("quarantine_clean");
  SweepRunner(fast_options(clean)).run(small_spec());
  EXPECT_EQ(read_file(path), read_file(clean));
}

TEST(SweepFaults, ManifestWriteFaultIsRetriedToIdenticalBytes) {
  const std::string path = temp_manifest("mwrite");
  fault::FaultInjector injector{fault::FaultPlan::parse("manifest_write:1")};
  auto opt = fast_options(path);
  opt.fault = &injector;
  const auto result = SweepRunner(opt).run(small_spec());
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.degraded());
  EXPECT_EQ(result.retries, 1u);
  expect_baseline(result);

  const std::string clean = temp_manifest("mwrite_clean");
  SweepRunner(fast_options(clean)).run(small_spec());
  EXPECT_EQ(read_file(path), read_file(clean));
}

TEST(SweepFaults, ManifestWriteExhaustionDegradesToInMemoryResults) {
  const std::string path = temp_manifest("mwrite_dead");
  fault::FaultInjector injector{
      fault::FaultPlan::parse("manifest_write:1*999")};
  auto opt = fast_options(path);
  opt.fault = &injector;
  const auto result = SweepRunner(opt).run(small_spec());
  // Checkpointing died, the sweep did not: every result exists in memory.
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.degraded());
  expect_baseline(result);
  ASSERT_EQ(result.io_errors.size(), 1u);
  EXPECT_EQ(result.io_errors[0].site, "manifest_write");
  EXPECT_EQ(result.io_errors[0].label, path);
  EXPECT_EQ(result.io_errors[0].attempts, 3u);  // fixed manifest I/O attempts
  EXPECT_EQ(result.retries, 2u);
  EXPECT_FALSE(std::ifstream(path).good());  // no manifest was written
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());

  // The journal survived the failed compaction: a clean rerun resumes
  // from it and lands on the canonical bytes.
  const auto rerun = SweepRunner(fast_options(path)).run(small_spec());
  EXPECT_TRUE(rerun.complete);
  EXPECT_FALSE(rerun.degraded());
  EXPECT_EQ(rerun.cached, 4u);
  const std::string clean = temp_manifest("mwrite_dead_clean");
  SweepRunner(fast_options(clean)).run(small_spec());
  EXPECT_EQ(read_file(path), read_file(clean));
}

TEST(SweepFaults, ManifestReadExhaustionFallsBackToResimulation) {
  const std::string path = temp_manifest("mread");
  SweepRunner(fast_options(path)).run(small_spec());
  const std::string bytes = read_file(path);

  fault::FaultInjector injector{
      fault::FaultPlan::parse("manifest_read:1*9")};
  auto opt = fast_options(path);
  opt.fault = &injector;
  const auto result = SweepRunner(opt).run(small_spec());
  // The cache was unreachable, so everything resimulated — correctly.
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.cached, 0u);
  EXPECT_EQ(result.simulated, 4u);
  EXPECT_TRUE(result.degraded());
  ASSERT_EQ(result.io_errors.size(), 1u);
  EXPECT_EQ(result.io_errors[0].site, "manifest_read");
  expect_baseline(result);
  EXPECT_EQ(read_file(path), bytes);  // rewrites converge to the same bytes
}

TEST(SweepFaults, DeadWorkerShardIsSurvivedByTheRest) {
  const std::string path = temp_manifest("deadshard");
  fault::FaultInjector injector{fault::FaultPlan::parse("pool_task:1")};
  auto opt = fast_options(path);
  opt.fault = &injector;
  const auto result = SweepRunner(opt).run(small_spec());
  // One of the two shards died before claiming any cell; the survivor
  // drained the queue and nothing was lost.
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.degraded());
  EXPECT_EQ(result.faults_injected, 1u);
  expect_baseline(result);

  const std::string clean = temp_manifest("deadshard_clean");
  SweepRunner(fast_options(clean)).run(small_spec());
  EXPECT_EQ(read_file(path), read_file(clean));
}

TEST(SweepFaults, TrialDeadlineQuarantinesNonConvergedCells) {
  const std::string path = temp_manifest("deadline");
  auto opt = fast_options(path);
  opt.cell_trial_deadline = 300;  // clamps the 600-trial budget
  const auto result = SweepRunner(opt).run(small_spec());
  // The 1e-9 relative-SEM target is unreachable, so with a deadline armed
  // every cell is a deterministic failure — quarantined on the first
  // attempt, never retried (replaying a budget exhaustion is pointless).
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.failed(), 4u);
  EXPECT_EQ(result.retries, 0u);
  EXPECT_EQ(result.faults_injected, 0u);  // organic failure, not injected
  for (const ErrorRecord& q : result.quarantined) {
    EXPECT_EQ(q.site, "cell_deadline");
    EXPECT_EQ(q.attempts, 1u);
    EXPECT_NE(q.message.find("did not converge"), std::string::npos);
  }
  // Quarantined records are sorted by cell index in result and manifest.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(result.quarantined[i].index, i);
  }
  // The clamp feeds the cache key: deadline rows never collide with the
  // unclamped baseline rows.
  for (const ErrorRecord& q : result.quarantined) {
    EXPECT_NE(q.cell_key, kBaselineCellKeys[q.index]);
  }
  const auto root = obs::parse_json(read_file(path));
  EXPECT_EQ(root.get("cells").size(), 0u);
  EXPECT_EQ(root.get("quarantined").size(), 4u);
  EXPECT_EQ(root.get("options").get("max_trials").as_uint64(), 300u);
}

TEST(SweepFaults, ManifestParentDirectoriesAreCreated) {
  const std::string dir = ::testing::TempDir() + "raidrel_nested_dir";
  const std::string path = dir + "/deeper/manifest.json";
  std::remove(path.c_str());
  const auto result = SweepRunner(fast_options(path)).run(small_spec());
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(std::ifstream(path).good());
  const auto rerun = SweepRunner(fast_options(path)).run(small_spec());
  EXPECT_EQ(rerun.cached, 4u);
}

// Entries of an earlier format are never served: a manifest of the
// previous schema resimulates every cell, and a journal record that lacks
// a field every record now carries stops the replay there.
TEST(SweepFaults, OldFormatEntriesAreResimulated) {
  const std::string clean = temp_manifest("oldformat_clean");
  SweepRunner(fast_options(clean)).run(small_spec());
  const std::string clean_bytes = read_file(clean);

  const std::string path = temp_manifest("oldformat_schema");
  std::string text = clean_bytes;
  const std::string v3 = "\"raidrel-sweep-manifest/3\"";
  const auto spos = text.find(v3);
  ASSERT_NE(spos, std::string::npos);
  text.replace(spos, v3.size(), "\"raidrel-sweep-manifest/2\"");
  write_file(path, text);
  const auto schema2 = SweepRunner(fast_options(path)).run(small_spec());
  EXPECT_EQ(schema2.cached, 0u);
  EXPECT_EQ(schema2.simulated, 4u);
  expect_baseline(schema2);
  EXPECT_EQ(read_file(path), clean_bytes);  // rewritten as /3

  // Every compaction fails, so the pass leaves its whole journal behind.
  const std::string journaled = temp_manifest("oldformat_journal");
  {
    fault::FaultInjector no_rename{
        fault::FaultPlan::parse("manifest_rename:1*99")};
    auto opt = fast_options(journaled);
    opt.fault = &no_rename;
    SweepRunner(opt).run(small_spec());
  }
  const std::string journal = read_file(journaled + ".journal");
  const std::vector<std::size_t> ends = record_ends(journal);
  ASSERT_EQ(ends.size(), 4u);
  // The first record without its "ess" field, its checksum redone: what
  // an earlier build wrote for an untilted cell.
  std::string first = journal.substr(17, ends[0] - 18);
  const auto epos = first.find(",\"ess\":");
  ASSERT_NE(epos, std::string::npos);
  first.erase(epos, first.find(',', epos + 1) - epos);
  ASSERT_NO_THROW(obs::parse_json(first));
  char sum[17];
  std::snprintf(sum, sizeof sum, "%016llx",
                static_cast<unsigned long long>(obs::fnv1a64(first)));
  write_file(journaled + ".journal",
             std::string(sum) + ' ' + first + '\n' + journal.substr(ends[0]));
  const auto replayed = SweepRunner(fast_options(journaled)).run(small_spec());
  EXPECT_EQ(replayed.cached, 0u);  // nothing past the record is trusted
  EXPECT_EQ(replayed.simulated, 4u);
  expect_baseline(replayed);
  EXPECT_EQ(read_file(journaled), clean_bytes);
}

TEST(SweepFaults, RetryBudgetsMustBePositive) {
  auto opt = fast_options();
  opt.cell_attempts = 0;
  EXPECT_THROW(SweepRunner(opt).run(small_spec()), ModelError);
}

// ---------------------------------------------------------------------------
// The completion journal (<manifest>.journal): one fsynced record per
// completed cell, folded into the manifest by a compaction at sweep end.

TEST(SweepJournal, FailedCompactionLeavesNoTempFileAndKeepsTheJournal) {
  const std::string path = temp_manifest("journal_norename");
  fault::FaultInjector injector{
      fault::FaultPlan::parse("manifest_rename:1*9")};
  auto opt = fast_options(path);
  opt.fault = &injector;
  const auto result = SweepRunner(opt).run(small_spec());
  EXPECT_TRUE(result.complete);
  expect_baseline(result);
  ASSERT_EQ(result.io_errors.size(), 1u);
  EXPECT_EQ(result.io_errors[0].site, "manifest_rename");
  EXPECT_EQ(result.io_errors[0].attempts, 3u);
  EXPECT_EQ(injector.hits("manifest_write"), 3u);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_EQ(record_ends(read_file(path + ".journal")).size(), 4u);
}

TEST(SweepJournal, FailedAppendOrSyncIsCutBackBeforeTheRetry) {
  const std::string clean = temp_manifest("journal_cut_clean");
  SweepRunner(fast_options(clean)).run(small_spec());
  for (const std::string site : {"journal_append", "journal_sync"}) {
    SCOPED_TRACE(site);
    // The second record fails once after its bytes were written; the
    // failed compaction keeps the journal on disk for inspection.
    const std::string path = temp_manifest("journal_cut_" + site);
    fault::FaultInjector injector{
        fault::FaultPlan::parse(site + ":2,manifest_rename:1*9")};
    auto opt = fast_options(path);
    opt.fault = &injector;
    const auto result = SweepRunner(opt).run(small_spec());
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(injector.injected(site), 1u);
    EXPECT_EQ(result.retries, 3u);  // the record once, the compaction twice
    ASSERT_EQ(result.io_errors.size(), 1u);
    EXPECT_EQ(result.io_errors[0].site, "manifest_rename");

    // Every cell exactly once (four lines, four keys), every record whole
    // (the resume replays all four).
    const std::string journal = read_file(path + ".journal");
    std::set<std::uint64_t> keys;
    std::size_t start = 0;
    for (const std::size_t end : record_ends(journal)) {
      // A record is "<16 hex digits> <cell JSON>\n".
      const std::string json = journal.substr(start + 17, end - 1 - start - 17);
      keys.insert(obs::parse_json(json).get("cell_key").as_uint64());
      start = end;
    }
    EXPECT_EQ(start, journal.size());
    EXPECT_EQ(record_ends(journal).size(), 4u);
    EXPECT_EQ(keys.size(), 4u);

    const auto resumed = SweepRunner(fast_options(path)).run(small_spec());
    EXPECT_EQ(resumed.cached, 4u);
    EXPECT_FALSE(std::filesystem::exists(path + ".journal"));
    EXPECT_EQ(read_file(path), read_file(clean));
  }
}

TEST(SweepJournal, ResumeFoldsAReplayedJournalIntoTheManifestFirst) {
  const std::string path = temp_manifest("journal_fold");
  {
    fault::FaultInjector failing{
        fault::FaultPlan::parse("manifest_rename:1*9")};
    auto opt = fast_options(path);
    opt.max_cells = 2;
    opt.fault = &failing;
    SweepRunner(opt).run(small_spec());
  }
  ASSERT_FALSE(std::filesystem::exists(path));
  fault::FaultInjector counter{fault::FaultPlan{}};
  auto opt = fast_options(path);
  opt.fault = &counter;
  const auto resumed = SweepRunner(opt).run(small_spec());
  EXPECT_TRUE(resumed.complete);
  EXPECT_FALSE(resumed.degraded());
  EXPECT_EQ(resumed.cached, 2u);
  EXPECT_EQ(resumed.simulated, 2u);
  expect_baseline(resumed);
  // One compaction folds the replayed records in, one ends the sweep.
  EXPECT_EQ(counter.hits("manifest_write"), 2u);
  EXPECT_EQ(counter.hits("manifest_rename"), 2u);
  EXPECT_EQ(counter.hits("journal_append"), 2u);

  const std::string clean = temp_manifest("journal_fold_clean");
  SweepRunner(fast_options(clean)).run(small_spec());
  EXPECT_EQ(read_file(path), read_file(clean));
}

// Two 300-trial cells over a 1000-hour mission, run in order on one
// shard: cheap enough to resume from every byte offset of their journal.
SweepSpec tiny_spec() {
  core::ScenarioConfig base = small_base();
  base.mission_hours = 1000.0;
  SweepSpec spec("journal-test", base);
  spec.add_restore_eta_axis({12.0, 48.0});
  return spec;
}

SweepOptions tiny_options(const std::string& manifest) {
  SweepOptions opt = fast_options(manifest);
  opt.convergence.max_trials = 300;
  opt.threads = 1;
  return opt;
}

struct JournalFixture {
  std::string clean;    ///< single-pass manifest
  std::string partial;  ///< manifest of a pass stopped after cell 0
  std::string journal;  ///< both cells' records, cell 0 first
  std::vector<std::size_t> ends;
  std::vector<std::uint64_t> digests;  ///< single-pass result digests
};

JournalFixture make_fixture() {
  JournalFixture f;
  // Three tests build this fixture, and ctest may run them at once in
  // separate processes: name the files after the running test so no two
  // processes share them.
  const std::string test =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  const std::string clean = temp_manifest(test + "_fixture_clean");
  const auto single = SweepRunner(tiny_options(clean)).run(tiny_spec());
  f.clean = read_file(clean);
  for (const auto& cell : single.cells) f.digests.push_back(cell.result_digest);

  const std::string partial = temp_manifest(test + "_fixture_partial");
  auto stop_early = tiny_options(partial);
  stop_early.max_cells = 1;
  SweepRunner(stop_early).run(tiny_spec());
  f.partial = read_file(partial);

  // A pass whose every compaction fails leaves its whole journal behind.
  const std::string full = temp_manifest(test + "_fixture_journal");
  fault::FaultInjector no_rename{
      fault::FaultPlan::parse("manifest_rename:1*99")};
  auto failing = tiny_options(full);
  failing.fault = &no_rename;
  SweepRunner(failing).run(tiny_spec());
  EXPECT_FALSE(std::filesystem::exists(full));
  f.journal = read_file(full + ".journal");
  f.ends = record_ends(f.journal);
  EXPECT_EQ(f.ends.size(), 2u);
  EXPECT_EQ(f.ends.back(), f.journal.size());
  return f;
}

/// Put a manifest (or none), a journal and a stray temp file at `path`.
void stage(const std::string& path, const std::string* manifest,
           std::string_view journal) {
  if (manifest != nullptr) {
    write_file(path, *manifest);
  } else {
    std::remove(path.c_str());
  }
  write_file(path + ".journal", journal);
  write_file(path + ".tmp", "{\"schema\": \"a crashed compaction's temp");
}

/// Every crash leaves a prefix of the journal: a resume from any prefix,
/// beside no manifest or a partial one, lands on the single-pass bytes.
TEST(SweepJournal, EveryJournalPrefixResumesToTheSinglePassBytes) {
  const JournalFixture f = make_fixture();
  ASSERT_EQ(f.ends.size(), 2u);
  const std::string path = temp_manifest("journal_prefix");
  for (std::size_t cut = 0; cut <= f.journal.size(); ++cut) {
    std::size_t whole = 0;  // records the prefix holds in full
    while (whole < f.ends.size() && f.ends[whole] <= cut) ++whole;
    for (const bool with_manifest : {false, true}) {
      SCOPED_TRACE("cut " + std::to_string(cut) +
                   (with_manifest ? " beside the partial manifest" : ""));
      stage(path, with_manifest ? &f.partial : nullptr,
            std::string_view(f.journal).substr(0, cut));
      const auto result = SweepRunner(tiny_options(path)).run(tiny_spec());
      const std::size_t cached = with_manifest ? std::max<std::size_t>(whole, 1)
                                               : whole;
      ASSERT_TRUE(result.complete);
      ASSERT_FALSE(result.degraded());
      ASSERT_EQ(result.cached, cached);
      ASSERT_EQ(read_file(path), f.clean);
      ASSERT_FALSE(std::filesystem::exists(path + ".tmp"));
      ASSERT_FALSE(std::filesystem::exists(path + ".journal"));
    }
  }
}

/// Replay stops at the first damaged line, even with valid records after
/// it, and the next append replaces everything past the valid prefix. A
/// line is damaged when its checksum fails, or when its checksum holds but
/// its result digest does not.
TEST(SweepJournal, ReplayStopsAtADamagedLineAndAppendsReplaceTheRest) {
  const JournalFixture f = make_fixture();
  ASSERT_EQ(f.ends.size(), 2u);
  const std::string_view journal(f.journal);
  // Cell 1's record with its trial count changed and its checksum redone.
  std::string forged(
      journal.substr(f.ends[0] + 17, f.ends[1] - f.ends[0] - 18));
  const std::size_t trials = forged.find("\"trials\":300");
  ASSERT_NE(trials, std::string::npos);
  forged.replace(trials, 12, "\"trials\":299");
  char sum[17];
  std::snprintf(sum, sizeof sum, "%016llx",
                static_cast<unsigned long long>(obs::fnv1a64(forged)));
  forged = std::string(sum) + ' ' + forged + '\n';

  for (const std::string& damaged :
       {std::string("0123456789abcdef {\"not\": \"a record\"}\n"), forged}) {
    SCOPED_TRACE(damaged);
    const std::string path = temp_manifest("journal_damaged");
    std::string staged(journal.substr(0, f.ends[0]));
    staged += damaged;
    staged += journal.substr(f.ends[0]);
    stage(path, nullptr, staged);
    // Every compaction fails, so the journal is left to inspect.
    fault::FaultInjector no_rename{
        fault::FaultPlan::parse("manifest_rename:1*99")};
    auto opt = tiny_options(path);
    opt.fault = &no_rename;
    const auto result = SweepRunner(opt).run(tiny_spec());
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.cached, 1u);
    EXPECT_EQ(result.simulated, 1u);
    EXPECT_EQ(read_file(path + ".journal"), f.journal);
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  }
}

/// Seeded byte flips, insertions, deletions and truncations of a valid
/// manifest and journal: the loader never crashes, never trusts a damaged
/// record, and the resume still lands on the single-pass bytes.
TEST(SweepJournal, HostileBytesNeverLoadADamagedRecord) {
  const JournalFixture f = make_fixture();
  ASSERT_EQ(f.ends.size(), 2u);
  const std::string path = temp_manifest("journal_hostile");
  std::mt19937_64 rng(20070625);
  constexpr int kMutations = 2000;
  for (int i = 0; i < kMutations; ++i) {
    // Even mutations hit the journal (beside the partial manifest), odd
    // ones the complete manifest (with no journal).
    const bool journal = i % 2 == 0;
    std::string bytes = journal ? f.journal : f.clean;
    // `at` is the first offset whose byte differs from the original.
    const std::size_t at = raidrel::test::mutate_bytes(bytes, rng);
    SCOPED_TRACE("mutation " + std::to_string(i) + " at byte " +
                 std::to_string(at) + (journal ? " of the journal" : ""));
    if (journal) {
      stage(path, &f.partial, bytes);
    } else {
      stage(path, &bytes, "");
    }
    SweepResult result;
    ASSERT_NO_THROW(result = SweepRunner(tiny_options(path)).run(tiny_spec()));
    ASSERT_TRUE(result.complete);
    ASSERT_FALSE(result.degraded());
    if (journal) {
      // Replay stops at the damaged record: only records wholly before
      // the first changed byte load, beside the manifest's cell 0.
      std::size_t whole = 0;
      while (whole < f.ends.size() && f.ends[whole] <= at) ++whole;
      ASSERT_EQ(result.cached, std::max<std::size_t>(whole, 1));
    }
    for (std::size_t c = 0; c < result.cells.size(); ++c) {
      ASSERT_EQ(cell_result_digest(result.cells[c]), f.digests[c]);
    }
    ASSERT_EQ(read_file(path), f.clean);
  }
}

}  // namespace
}  // namespace raidrel::sweep
