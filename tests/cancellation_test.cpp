// Cooperative cancellation across the execution stack: the Monte Carlo
// engines drain to honest partial results, the convergence loop reports
// kCancelled/kDeadline stops, and the sweep runner leaves interrupted
// cells pending so a resumed sweep converges to byte-identical manifest
// bytes. Determinism comes from CancelToken::cancel_after_polls (the
// engines poll once per trial / per lane) and from the fault injector's
// @hang / @ms kinds — never from racing wall-clock against the engines.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "fault/fault_injection.h"
#include "obs/run_telemetry.h"
#include "sim/convergence.h"
#include "sim/runner.h"
#include "stats/weibull.h"
#include "sweep/sweep_runner.h"
#include "util/cancel.h"
#include "util/error.h"
#include "support/event_twin.h"

namespace raidrel {
namespace {

using util::CancelReason;
using util::CancelToken;
using util::Deadline;

raid::GroupConfig busy_group() {
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 4000.0, 1.2);
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 100.0, 2.0);
  m.time_to_latent_defect = std::make_unique<stats::Weibull>(0.0, 2000.0, 1.0);
  m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, 300.0, 3.0);
  return raid::make_uniform_group(8, 1, m, 20000.0);
}

// Single-threaded options: poll counts are deterministic only when one
// worker observes every poll, which is what lets cancel_after_polls stop
// an engine at an exact trial boundary.
sim::RunOptions serial_run(std::size_t trials, std::size_t width) {
  sim::RunOptions opt;
  opt.trials = trials;
  opt.seed = 3;
  opt.threads = 1;
  opt.batch_width = width;
  return opt;
}

// ---------------------------------------------------------------- engines

// busy_group() is latent-credited; the engine-level cancellation tests
// also run its event twin (support/event_twin.h), whose batched engine
// really runs lanes in lockstep.
TEST(RunnerCancellation, UncancelledTokenLeavesTheRunBitIdentical) {
  for (const auto& cfg : test::with_event_twin(busy_group())) {
    const auto bare = sim::run_monte_carlo(cfg, serial_run(400, 1));
    CancelToken token;
    auto opt = serial_run(400, 1);
    opt.cancel = &token;
    const auto polled = sim::run_monte_carlo(cfg, opt);
    EXPECT_GT(token.polls(), 0u);
    EXPECT_FALSE(token.cancelled());
    EXPECT_EQ(polled.trials(), bare.trials());
    EXPECT_DOUBLE_EQ(polled.total_ddfs_per_1000(), bare.total_ddfs_per_1000());
    EXPECT_EQ(polled.op_failures(), bare.op_failures());
    EXPECT_EQ(polled.latent_defects(), bare.latent_defects());
  }
}

TEST(RunnerCancellation, PreCancelledRunDrainsToZeroTrials) {
  CancelToken token;
  token.request_cancel();
  auto opt = serial_run(400, 1);
  opt.cancel = &token;
  const auto result = sim::run_monte_carlo(busy_group(), opt);
  EXPECT_EQ(result.trials(), 0u);  // drained, not thrown
}

TEST(RunnerCancellation, ScalarAndBatchedEnginesDrainAtTheSameBoundary) {
  // The scalar engine polls once per trial, the batched engine once per
  // lane: tripping the scalar token on poll 65 and the width-64 token on
  // poll 2 stops both engines after exactly trials 0..63 — which must be
  // bit-identical to each other AND to an uncancelled 64-trial run,
  // because polling never touches a random stream. The runs record the
  // double-op probe, whose order-sensitive sums match only when one worker
  // merges the trials in the same order on both engines.
  const auto probed_run = [](std::size_t trials, std::size_t width) {
    auto opt = serial_run(trials, width);
    opt.double_op_probe = true;
    return opt;
  };
  for (const auto& cfg : test::with_event_twin(busy_group())) {
    const auto reference = sim::run_monte_carlo(cfg, probed_run(64, 1));
    const auto reference_probe =
        reference.rocof_per_1000(sim::Estimator::kDoubleOpProbe);
    EXPECT_GT(reference.total_ddfs_per_1000(sim::Estimator::kDoubleOpProbe),
              0.0);

    CancelToken scalar_token;
    scalar_token.cancel_after_polls(65);
    auto scalar_opt = probed_run(1000, 1);
    scalar_opt.cancel = &scalar_token;
    const auto scalar = sim::run_monte_carlo(cfg, scalar_opt);

    CancelToken batched_token;
    batched_token.cancel_after_polls(2);
    auto batched_opt = probed_run(1000, 64);
    batched_opt.cancel = &batched_token;
    const auto batched = sim::run_monte_carlo(cfg, batched_opt);

    ASSERT_EQ(scalar.trials(), 64u);
    ASSERT_EQ(batched.trials(), 64u);
    for (const auto& partial : {&scalar, &batched}) {
      EXPECT_DOUBLE_EQ(partial->total_ddfs_per_1000(),
                       reference.total_ddfs_per_1000());
      EXPECT_EQ(partial->op_failures(), reference.op_failures());
      EXPECT_EQ(partial->latent_defects(), reference.latent_defects());
      EXPECT_EQ(partial->scrubs_completed(), reference.scrubs_completed());
      EXPECT_EQ(partial->rocof_per_1000(sim::Estimator::kDoubleOpProbe),
                reference_probe);  // bit for bit
    }
  }
}

TEST(RunnerCancellation, CancelledRunRecordsStopReasonTelemetry) {
  obs::RunTelemetry telemetry;
  CancelToken token;
  token.cancel_after_polls(65);
  auto opt = serial_run(1000, 1);
  opt.cancel = &token;
  opt.telemetry = &telemetry;
  (void)sim::run_monte_carlo(busy_group(), opt);
  ASSERT_TRUE(telemetry.has_stop_reason());
  EXPECT_EQ(telemetry.stop().stop_reason, "cancelled");
  EXPECT_GT(telemetry.stop().cancel_polls, 0u);
  EXPECT_GE(telemetry.stop().cancel_latency_seconds, 0.0);
  const std::string json = telemetry.json();
  EXPECT_NE(json.find("\"stop_reason\""), std::string::npos);
  EXPECT_NE(json.find("\"cancellation\""), std::string::npos);
}

TEST(RunnerCancellation, UncancelledTelemetryOmitsTheStopKeys) {
  // The additive-key contract: a run that never sets a stop reason must
  // serialize byte-compatibly with pre-cancellation manifests.
  obs::RunTelemetry telemetry;
  auto opt = serial_run(50, 1);
  opt.telemetry = &telemetry;
  (void)sim::run_monte_carlo(busy_group(), opt);
  EXPECT_FALSE(telemetry.has_stop_reason());
  const std::string json = telemetry.json();
  EXPECT_EQ(json.find("\"stop_reason\""), std::string::npos);
  EXPECT_EQ(json.find("\"cancellation\""), std::string::npos);
}

// ----------------------------------------------------------- convergence

sim::ConvergenceOptions serial_convergence() {
  sim::ConvergenceOptions opt;
  opt.batch_trials = 500;
  opt.min_trials = 500;
  opt.max_trials = 100000;
  opt.seed = 3;
  opt.threads = 1;
  opt.batch_width = 1;
  return opt;
}

TEST(ConvergenceCancellation, PreCancelledStudyStopsWithZeroTrials) {
  CancelToken token;
  token.request_cancel();
  auto opt = serial_convergence();
  opt.cancel = &token;
  const auto run = sim::run_until_converged(busy_group(), opt);
  EXPECT_FALSE(run.converged);
  EXPECT_EQ(run.stop, sim::ConvergedRun::StopRule::kCancelled);
  EXPECT_EQ(run.result.trials(), 0u);
  EXPECT_EQ(run.batches, 1u);
  // Honest "no information" diagnostics, not fabricated statistics.
  EXPECT_TRUE(std::isinf(run.relative_sem));
  EXPECT_EQ(run.absolute_sem, 0.0);
  EXPECT_EQ(run.ess, 0.0);
}

TEST(ConvergenceCancellation, MidStudyCancelKeepsThePartialBatch) {
  // Poll 251 trips mid-batch: trials 0..249 completed, and the loop must
  // merge them (cancellation trumps even the min-trials floor).
  CancelToken token;
  token.cancel_after_polls(251);
  auto opt = serial_convergence();
  opt.cancel = &token;
  const auto run = sim::run_until_converged(busy_group(), opt);
  EXPECT_FALSE(run.converged);
  EXPECT_EQ(run.stop, sim::ConvergedRun::StopRule::kCancelled);
  EXPECT_EQ(run.result.trials(), 250u);
  EXPECT_EQ(run.batches, 1u);
}

TEST(ConvergenceCancellation, ExpiredDeadlineStopsTheStudyAsDeadline) {
  // A wall-clock bound is a token carrying the deadline.
  CancelToken token(Deadline::after_seconds(0.0));
  auto opt = serial_convergence();
  opt.cancel = &token;
  const auto run = sim::run_until_converged(busy_group(), opt);
  EXPECT_FALSE(run.converged);
  EXPECT_EQ(run.stop, sim::ConvergedRun::StopRule::kDeadline);
  EXPECT_EQ(run.result.trials(), 0u);
}

TEST(ConvergenceCancellation, DeadlineComposesWithACallerToken) {
  // Both bounds armed: a child carrying the deadline observes whichever
  // trips first — here the caller's explicit cancel, reported as
  // kCancelled.
  CancelToken token;
  token.request_cancel();
  CancelToken bounded = token.child(Deadline::after_seconds(3600.0));
  auto opt = serial_convergence();
  opt.cancel = &bounded;
  const auto run = sim::run_until_converged(busy_group(), opt);
  EXPECT_EQ(run.stop, sim::ConvergedRun::StopRule::kCancelled);

  // The other way round: a live caller token, an expired child deadline.
  CancelToken live;
  CancelToken expired = live.child(Deadline::after_seconds(0.0));
  opt.cancel = &expired;
  EXPECT_EQ(sim::run_until_converged(busy_group(), opt).stop,
            sim::ConvergedRun::StopRule::kDeadline);
  EXPECT_FALSE(live.cancelled());
}

TEST(ConvergenceCancellation, StopRuleNamesCoverTheCancelStops) {
  EXPECT_STREQ(sim::to_string(sim::ConvergedRun::StopRule::kCancelled),
               "cancelled");
  EXPECT_STREQ(sim::to_string(sim::ConvergedRun::StopRule::kDeadline),
               "deadline");
}

TEST(ConvergenceCancellation, StopReasonIsRecordedForOrdinaryRuns) {
  obs::RunTelemetry telemetry;
  auto opt = serial_convergence();
  opt.target_relative_sem = 10.0;  // trivially reached in one batch
  opt.telemetry = &telemetry;
  const auto run = sim::run_until_converged(busy_group(), opt);
  ASSERT_TRUE(run.converged);
  ASSERT_TRUE(telemetry.has_stop_reason());
  EXPECT_EQ(telemetry.stop().stop_reason, "relative-sem");
  EXPECT_LT(telemetry.stop().cancel_latency_seconds, 0.0);
  // Uncancelled: the manifest carries the reason but no latency object.
  const std::string json = telemetry.json();
  EXPECT_NE(json.find("\"stop_reason\""), std::string::npos);
  EXPECT_EQ(json.find("\"cancellation\""), std::string::npos);
}

// ----------------------------------------------------------------- sweep

core::ScenarioConfig small_base() {
  core::ScenarioConfig s;
  s.group_drives = 4;
  s.mission_hours = 20000.0;
  s.ttop = {0.0, 4000.0, 1.2};
  s.ttr = {6.0, 100.0, 2.0};
  s.ttld = stats::WeibullParams{0.0, 2000.0, 1.0};
  s.ttscrub = stats::WeibullParams{6.0, 300.0, 3.0};
  return s;
}

sweep::SweepSpec small_spec() {
  sweep::SweepSpec spec("cancel-test", small_base());
  spec.add_restore_eta_axis({12.0, 48.0});
  spec.add_group_size_axis({4, 6});
  return spec;
}

sweep::SweepOptions fast_options(const std::string& manifest = "") {
  sweep::SweepOptions opt;
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
  std::remove(path.c_str());
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(SweepCancellation, RejectsNegativeBudgets) {
  auto opt = fast_options();
  opt.cell_soft_budget_seconds = -1.0;
  EXPECT_THROW(sweep::SweepRunner(opt).run(small_spec()), ModelError);
  opt = fast_options();
  opt.cell_hard_budget_seconds = -1.0;
  EXPECT_THROW(sweep::SweepRunner(opt).run(small_spec()), ModelError);
}

TEST(SweepCancellation, PreCancelledSweepLeavesEveryCellPending) {
  CancelToken token;
  token.request_cancel();
  auto opt = fast_options();
  opt.cancel = &token;
  const auto result = sweep::SweepRunner(opt).run(small_spec());
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.stop_reason, "cancelled");
  EXPECT_GE(result.cancel_latency_seconds, 0.0);
  EXPECT_FALSE(result.complete);
  EXPECT_TRUE(result.cells.empty());
  EXPECT_EQ(result.simulated, 0u);
  EXPECT_TRUE(result.quarantined.empty());  // pending, not failed
}

TEST(SweepCancellation, InterruptedSweepResumesToByteIdenticalManifest) {
  // The paper-trail property the drivers' exit code 4 promises: interrupt
  // a sweep mid-flight, keep the durable checkpoint, rerun, and end with
  // the exact bytes of a never-interrupted pass.
  const std::string clean_path = temp_manifest("cancel_clean");
  const auto clean = sweep::SweepRunner(fast_options(clean_path))
                         .run(small_spec());
  ASSERT_TRUE(clean.complete);
  const std::string clean_bytes = read_file(clean_path);

  // Interrupted pass: one cell wedges on an injected hang (polling its
  // cell token), the others complete and checkpoint; then the "signal"
  // arrives and the hung cell unwinds as a sweep-level interrupt.
  const std::string path = temp_manifest("cancel_resume");
  fault::FaultInjector injector{
      fault::FaultPlan::parse("cell:restore=12 group=6@hang")};
  obs::RunTelemetry telemetry;
  CancelToken token;
  auto opt = fast_options(path);
  opt.cancel = &token;
  opt.fault = &injector;
  opt.telemetry = &telemetry;
  std::thread signaller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    token.request_cancel();
  });
  const auto interrupted = sweep::SweepRunner(opt).run(small_spec());
  signaller.join();

  EXPECT_TRUE(interrupted.interrupted);
  EXPECT_EQ(interrupted.stop_reason, "cancelled");
  EXPECT_FALSE(interrupted.complete);  // the hung cell stayed pending
  EXPECT_LT(interrupted.cells.size(), clean.cells.size());
  EXPECT_TRUE(interrupted.quarantined.empty());
  EXPECT_EQ(injector.delayed("cell"), 1u);  // the hang actually wedged
  // Drain latency: request -> workers parked, bounded by one poll slice
  // plus scheduling noise (generous CI margin, still orders of magnitude
  // under "hung").
  EXPECT_GE(interrupted.cancel_latency_seconds, 0.0);
  EXPECT_LT(interrupted.cancel_latency_seconds, 30.0);
  ASSERT_TRUE(telemetry.has_stop_reason());
  EXPECT_EQ(telemetry.stop().stop_reason, "cancelled");

  // Resume with no injector and no token: only the pending cells run.
  auto resume_opt = fast_options(path);
  const auto resumed = sweep::SweepRunner(resume_opt).run(small_spec());
  EXPECT_TRUE(resumed.complete);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.cached, interrupted.cells.size());
  EXPECT_EQ(resumed.cached + resumed.simulated, clean.cells.size());
  EXPECT_EQ(resumed.sweep_digest, clean.sweep_digest);
  EXPECT_EQ(read_file(path), clean_bytes);
}

TEST(SweepCancellation, SoftBudgetQuarantinesAStalledCell) {
  // No sweep-level token at all: the cell's own soft budget arms the cell
  // token, the injected hang polls it, and the expiry is classified as a
  // stall (quarantine), not an interrupt.
  fault::FaultInjector injector{
      fault::FaultPlan::parse("cell:restore=12 group=6@hang")};
  auto opt = fast_options();
  opt.fault = &injector;
  // Generous enough that the honest cells finish inside the budget even
  // under a sanitizer's ~15x slowdown; the hung cell trips it regardless.
  opt.cell_soft_budget_seconds = 2.0;
  const auto result = sweep::SweepRunner(opt).run(small_spec());
  EXPECT_FALSE(result.interrupted);
  EXPECT_FALSE(result.complete);
  EXPECT_TRUE(result.degraded());
  EXPECT_GE(result.stalled, 1u);
  ASSERT_EQ(result.quarantined.size(), 1u);
  EXPECT_EQ(result.quarantined[0].site, "cell_stalled");
  EXPECT_EQ(result.quarantined[0].label, "restore=12 group=6");
  EXPECT_EQ(result.quarantined[0].attempts, 1u);  // stalls never retry
  EXPECT_EQ(result.cells.size(), 3u);  // everything else completed
}

TEST(SweepCancellation, HardWatchdogFlagsAGlacialCellWithoutKillingIt) {
  // A finite injected delay (uninterruptible, like a real slow kernel)
  // carries the first cell past the hard budget: the watchdog must record
  // the breach and the sweep must still complete with bit-identical
  // results — degraded, never hung, never wrong.
  const auto clean = sweep::SweepRunner(fast_options()).run(small_spec());
  ASSERT_TRUE(clean.complete);

  fault::FaultInjector injector{fault::FaultPlan::parse("cell:1@400")};
  auto opt = fast_options();
  opt.fault = &injector;
  opt.cell_hard_budget_seconds = 0.1;
  const auto result = sweep::SweepRunner(opt).run(small_spec());
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.interrupted);
  EXPECT_EQ(injector.delayed("cell"), 1u);
  EXPECT_GE(result.stalled, 1u);
  EXPECT_TRUE(result.degraded());
  ASSERT_FALSE(result.io_errors.empty());
  bool flagged = false;
  for (const auto& rec : result.io_errors) {
    if (rec.site == "watchdog_hard") flagged = true;
  }
  EXPECT_TRUE(flagged);
  // Wall-clock trouble never reaches the numbers.
  EXPECT_EQ(result.sweep_digest, clean.sweep_digest);
}

}  // namespace
}  // namespace raidrel
