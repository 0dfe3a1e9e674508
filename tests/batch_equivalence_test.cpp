// The batched lockstep engine (sim/batch_engine.h) promises *bit-identical*
// results to the scalar GroupSimulator — not merely statistically
// equivalent. Its lanes regroup random draws across trials, so the promise
// only holds if every trial still consumes its own stream in the scalar
// order; these tests pin that down with EXPECT_EQ on every double: per-trial
// DDF times and kinds, probe entries, event counters, and traced event
// histories, across batch widths, partial lanes, kernel policies, and every
// model feature with its own dispatch path (spare pools, stripe zones,
// drive-age latent clocks, reconstruction defects, mixed-vintage laws).
//
// Runner-level tests then check that run_monte_carlo aggregates are
// invariant under batch_width and thread count, including awkward trial
// counts around the lane size (W-1, W+1, 3W+5) and non-zero
// first_trial_index offsets.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/presets.h"
#include "obs/trace.h"
#include "sim/batch_engine.h"
#include "sim/group_simulator.h"
#include "sim/runner.h"
#include "sim/slot_kernel.h"
#include "stats/basic_distributions.h"
#include "stats/weibull.h"
#include "util/cpu_features.h"
#include "util/error.h"
#include "support/event_twin.h"

namespace raidrel::sim {
namespace {

constexpr std::uint64_t kSeed = 20070625;

raid::GroupConfig busy_group(double mission = 20000.0) {
  // Failure-heavy so short runs exercise restores, scrubs, DDF freezes and
  // the probe, not just quiet missions.
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 4000.0, 1.2);
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 100.0, 2.0);
  m.time_to_latent_defect =
      std::make_unique<stats::Weibull>(0.0, 2000.0, 1.0);
  m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, 300.0, 3.0);
  return raid::make_uniform_group(8, 1, m, mission);
}

raid::GroupConfig spare_pool_group() {
  auto cfg = busy_group();
  cfg.spare_pool = raid::SparePoolConfig{2, 200.0};
  return cfg;
}

raid::GroupConfig high_redundancy_group(unsigned redundancy,
                                        raid::RebuildModel rebuild) {
  // Same failure-heavy laws in a wider group: m-overlap events stay
  // frequent enough that the census, freeze, and (for declustered) the
  // restore-scale path all fire inside 200 trials.
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 4000.0, 1.2);
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 100.0, 2.0);
  m.time_to_latent_defect =
      std::make_unique<stats::Weibull>(0.0, 2000.0, 1.0);
  m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, 300.0, 3.0);
  auto cfg = raid::make_uniform_group(12, redundancy, m, 20000.0);
  cfg.rebuild = rebuild;
  return cfg;
}

raid::GroupConfig stripe_zone_group() {
  auto cfg = busy_group();
  cfg.stripe_zones = 4;
  return cfg;
}

raid::GroupConfig drive_age_group() {
  auto cfg = busy_group();
  cfg.latent_clock = raid::LatentClock::kDriveAge;
  return cfg;
}

raid::GroupConfig recon_defect_group() {
  auto cfg = busy_group();
  cfg.reconstruction_defect_probability = 0.3;
  return cfg;
}

raid::GroupConfig mixed_law_group() {
  // Slot laws differ by vintage, so no law is slot-uniform and every bulk
  // refill must take the element-wise fallback; slots 0..3 also drop the
  // scrub law to exercise the partial-gather path of the latent handler.
  auto cfg = busy_group();
  for (std::size_t s = 0; s < cfg.slots.size(); ++s) {
    auto& slot = cfg.slots[s];
    const double eta = 3000.0 + 500.0 * static_cast<double>(s);
    slot.time_to_op_failure =
        std::make_unique<stats::Weibull>(0.0, eta, 1.2);
    if (s < 4) slot.time_to_scrub.reset();
  }
  return cfg;
}

// `traces`, when given, holds one TrialTrace per trial (n of them).
std::vector<TrialResult> scalar_trials(
    const raid::GroupConfig& cfg, std::size_t n, KernelPolicy policy,
    std::uint64_t first_index = 0,
    std::vector<obs::TrialTrace>* traces = nullptr) {
  const rng::StreamFactory streams(kSeed);
  GroupSimulator simulator(cfg, policy, std::nullopt, nullptr,
                           /*double_op_probe=*/true);
  std::vector<TrialResult> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto rs = streams.stream(first_index + i);
    simulator.run_trial(rs, out[i], traces ? &(*traces)[i] : nullptr);
  }
  return out;
}

std::vector<TrialResult> batch_trials(
    const raid::GroupConfig& cfg, std::size_t n, std::size_t width,
    KernelPolicy policy, std::uint64_t first_index = 0,
    std::vector<obs::TrialTrace>* traces = nullptr) {
  const rng::StreamFactory streams(kSeed);
  BatchGroupSimulator simulator(cfg, width, policy, std::nullopt,
                                MathTier::kExact, nullptr,
                                /*double_op_probe=*/true);
  std::vector<TrialResult> out;
  out.reserve(n);
  std::vector<obs::TrialTrace*> lane_traces;
  for (std::size_t begin = 0; begin < n; begin += width) {
    const std::size_t count = std::min(width, n - begin);
    lane_traces.clear();
    for (std::size_t w = 0; traces && w < count; ++w) {
      lane_traces.push_back(&(*traces)[begin + w]);
    }
    simulator.run_lane(streams, first_index + begin, count, lane_traces);
    for (std::size_t w = 0; w < count; ++w) {
      out.push_back(simulator.result(w));
    }
  }
  return out;
}

void expect_trials_identical(const std::vector<TrialResult>& scalar,
                             const std::vector<TrialResult>& batch) {
  ASSERT_EQ(scalar.size(), batch.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    const TrialResult& a = scalar[i];
    const TrialResult& b = batch[i];
    SCOPED_TRACE("trial " + std::to_string(i));
    EXPECT_EQ(a.op_failures, b.op_failures);
    EXPECT_EQ(a.latent_defects, b.latent_defects);
    EXPECT_EQ(a.scrubs_completed, b.scrubs_completed);
    EXPECT_EQ(a.restores_completed, b.restores_completed);
    EXPECT_EQ(a.spare_arrivals, b.spare_arrivals);
    EXPECT_EQ(a.latent_credited, b.latent_credited);
    EXPECT_EQ(a.latent_credit, b.latent_credit);
    ASSERT_EQ(a.ddfs.size(), b.ddfs.size());
    for (std::size_t k = 0; k < a.ddfs.size(); ++k) {
      EXPECT_EQ(a.ddfs[k].time, b.ddfs[k].time) << "ddf " << k;
      EXPECT_EQ(a.ddfs[k].kind, b.ddfs[k].kind) << "ddf " << k;
    }
    ASSERT_EQ(a.double_op_probe.size(), b.double_op_probe.size());
    for (std::size_t k = 0; k < a.double_op_probe.size(); ++k) {
      EXPECT_EQ(a.double_op_probe[k].first, b.double_op_probe[k].first)
          << "probe " << k;
      EXPECT_EQ(a.double_op_probe[k].second, b.double_op_probe[k].second)
          << "probe " << k;
    }
  }
}

// A latent-credited config forwards every lane to the scalar engine, so
// it is also compared as its event twin, which runs in lockstep.
void expect_engine_equivalence(const raid::GroupConfig& config,
                               std::size_t n = 200,
                               KernelPolicy policy = KernelPolicy::kLowered) {
  for (const auto& cfg : test::with_event_twin(config)) {
    SCOPED_TRACE(latent_credit_exclusion(cfg) ? "events" : "latent credit");
    const auto scalar = scalar_trials(cfg, n, policy);
    for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                    std::size_t{16}, std::size_t{64}}) {
      SCOPED_TRACE("width " + std::to_string(width));
      expect_trials_identical(scalar, batch_trials(cfg, n, width, policy));
    }
  }
}

TEST(BatchEquivalence, BaseCase) {
  expect_engine_equivalence(core::presets::base_case().to_group_config());
}

TEST(BatchEquivalence, BaseCaseVirtualKernels) {
  // The lane regrouping must be policy-independent: force every draw
  // through the virtual Distribution fallback and compare again.
  expect_engine_equivalence(core::presets::base_case().to_group_config(),
                            120, KernelPolicy::kVirtualOnly);
}

TEST(BatchEquivalence, NoLatentDefects) {
  expect_engine_equivalence(
      core::presets::no_latent_defects().to_group_config());
}

TEST(BatchEquivalence, NoScrub) {
  // Latent defects without a scrub law: defects persist until the next
  // restore, so the defect_clears timer stays infinite.
  expect_engine_equivalence(
      core::presets::base_case_no_scrub().to_group_config());
}

TEST(BatchEquivalence, SparePoolQueueing) {
  expect_engine_equivalence(spare_pool_group());
}

TEST(BatchEquivalence, StripeZoneCollisions) {
  expect_engine_equivalence(stripe_zone_group());
}

TEST(BatchEquivalence, DriveAgeLatentClock) {
  // kDriveAge draws residual lifetimes, exercising sample_residual_n and
  // the age gather.
  expect_engine_equivalence(drive_age_group());
}

TEST(BatchEquivalence, ReconstructionDefects) {
  expect_engine_equivalence(recon_defect_group());
}

TEST(BatchEquivalence, MixedVintageLaws) {
  expect_engine_equivalence(mixed_law_group());
}

TEST(BatchEquivalence, Raid6BaseCase) {
  expect_engine_equivalence(
      core::presets::raid6_base_case().to_group_config(), 120);
}

TEST(BatchEquivalence, HighRedundancyBothRebuildModels) {
  // The acceptance matrix of the m-fault generalization: redundancy
  // 1..4 x both rebuild placements, bit-identical at every lane width.
  // Declustered restores multiply the sampled duration by the
  // source-count scale at the failure instant; the batched engine must
  // apply the exact same multiply to the exact same draw.
  for (const unsigned redundancy : {1u, 2u, 3u, 4u}) {
    for (const raid::RebuildModel rebuild :
         {raid::RebuildModel::kDedicatedSpare,
          raid::RebuildModel::kDeclustered}) {
      SCOPED_TRACE("redundancy " + std::to_string(redundancy) + " " +
                   raid::to_string(rebuild));
      expect_engine_equivalence(high_redundancy_group(redundancy, rebuild));
    }
  }
}

TEST(BatchEquivalence, DeclusteredWithSparePool) {
  // Declustered scaling composed with spare-pool queueing: a rebuild
  // blocked on a spare keeps the duration fixed at its failure instant,
  // and both engines must agree on every resulting timestamp.
  auto cfg = high_redundancy_group(3, raid::RebuildModel::kDeclustered);
  cfg.spare_pool = raid::SparePoolConfig{2, 200.0};
  expect_engine_equivalence(cfg);
}

TEST(BatchEquivalence, PartialLanesAndOffsets) {
  // Lane tails and non-zero stream offsets: results are a pure function of
  // the global trial index, so trials [17, 17+n) must match no matter how
  // lanes chop them up.
  for (const auto& cfg : test::with_event_twin(spare_pool_group())) {
    const std::size_t width = 16;
    for (const std::size_t n : {std::size_t{1}, width - 1, width + 1,
                                3 * width + 5}) {
      SCOPED_TRACE("trials " + std::to_string(n));
      const auto scalar = scalar_trials(cfg, n, KernelPolicy::kLowered, 17);
      expect_trials_identical(
          scalar, batch_trials(cfg, n, width, KernelPolicy::kLowered, 17));
    }
  }
}

TEST(BatchEquivalence, TracedHistoriesMatch) {
  for (const auto& cfg : test::with_event_twin(spare_pool_group())) {
    const std::size_t n = 40;
    std::vector<obs::TrialTrace> scalar_trace(n);
    std::vector<obs::TrialTrace> batch_trace(n);
    const auto scalar =
        scalar_trials(cfg, n, KernelPolicy::kLowered, 0, &scalar_trace);
    const auto batch = batch_trials(cfg, n, 16, KernelPolicy::kLowered, 0,
                                    &batch_trace);
    expect_trials_identical(scalar, batch);
    // Tracing draws nothing: traced trials match untraced ones bit for bit.
    expect_trials_identical(scalar,
                            scalar_trials(cfg, n, KernelPolicy::kLowered));
    expect_trials_identical(batch,
                            batch_trials(cfg, n, 16, KernelPolicy::kLowered));
    for (std::size_t i = 0; i < n; ++i) {
      const auto& ea = scalar_trace[i].events();
      const auto& eb = batch_trace[i].events();
      ASSERT_EQ(ea.size(), eb.size()) << "trial " << i;
      for (std::size_t k = 0; k < ea.size(); ++k) {
        EXPECT_EQ(ea[k], eb[k]) << "trial " << i << " event " << k;
      }
    }
  }
}

TEST(BatchEquivalence, InvalidWidthAndCountThrow) {
  const auto cfg = busy_group();
  EXPECT_THROW(BatchGroupSimulator(cfg, 0), ModelError);
  const rng::StreamFactory streams(kSeed);
  BatchGroupSimulator simulator(cfg, 8);
  EXPECT_THROW(simulator.run_lane(streams, 0, 0), ModelError);
  EXPECT_THROW(simulator.run_lane(streams, 0, 9), ModelError);
  std::vector<obs::TrialTrace*> two_traces(2, nullptr);
  EXPECT_THROW(simulator.run_lane(streams, 0, 3, two_traces), ModelError);
}

TEST(BatchEquivalence, BitIdenticalUnderEveryForcedIsa) {
  // The SIMD lane layer ships one backend per ISA tier
  // (util/cpu_features.h); every backend must uphold the same
  // bit-identity contract. Force each runnable tier in turn — the
  // engine resolves its LaneOps table at construction, so the override
  // takes effect per simulator — and rerun the scalar comparison. CI
  // also runs this whole binary once per forced tier; this in-process
  // loop keeps the guarantee even in a single unforced run.
  const auto cfg = busy_group();
  const auto scalar = scalar_trials(cfg, 120, KernelPolicy::kLowered);
  for (util::SimdIsa isa : {util::SimdIsa::kGeneric, util::SimdIsa::kAvx512}) {
    if (isa > util::detected_isa()) continue;
    SCOPED_TRACE(util::isa_name(isa));
    ASSERT_EQ(::setenv("RAIDREL_FORCE_ISA", util::isa_name(isa), 1), 0);
    expect_trials_identical(
        scalar, batch_trials(cfg, 120, 16, KernelPolicy::kLowered));
    ::unsetenv("RAIDREL_FORCE_ISA");
  }
}

// ---- Adversarial settle patterns ---------------------------------------
//
// The fused round loop compacts settled lanes out of the sweep in place
// (sim/batch_engine.h), so the dangerous schedules are the ones that
// reorder or shrink the active set aggressively: nearly every lane
// settling on the first round, lanes freezing at widely scattered rounds
// after early DDFs, and a full lane surviving to the mission end with
// compaction only at the tail. Each pattern must stay bit-identical to
// the scalar engine at every width, under both rebuild models, and on
// every runnable ISA backend.

raid::GroupConfig first_round_settle_group() {
  // Mission far shorter than the failure scales: ~97% of trials see no
  // event at all, so almost the whole lane settles on round one and the
  // few survivors run with a nearly empty active set.
  return busy_group(50.0);
}

raid::GroupConfig ddf_stagger_group() {
  // Frequent double failures with slow restores: lanes freeze on DDFs at
  // widely scattered rounds, so the active set shrinks by ones and twos
  // mid-batch — the staggered-compaction schedule.
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 500.0, 1.2);
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 400.0, 2.0);
  m.time_to_latent_defect =
      std::make_unique<stats::Weibull>(0.0, 2000.0, 1.0);
  m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, 300.0, 3.0);
  return raid::make_uniform_group(8, 1, m, 20000.0);
}

raid::GroupConfig survivor_tail_group() {
  // Reliable drives but a recurring scrub clock: every lane stays live
  // (and the lane stays full) until its own last pre-mission scrub, so
  // compaction happens only in the final rounds.
  raid::SlotModel m;
  m.time_to_op_failure =
      std::make_unique<stats::Weibull>(0.0, 1.0e6, 1.12);
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 12.0, 2.0);
  m.time_to_latent_defect =
      std::make_unique<stats::Weibull>(0.0, 9000.0, 1.0);
  m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, 168.0, 3.0);
  return raid::make_uniform_group(8, 1, m, 8760.0);
}

TEST(BatchEquivalence, SettlePatternsBothRebuildModels) {
  for (const raid::RebuildModel rebuild :
       {raid::RebuildModel::kDedicatedSpare,
        raid::RebuildModel::kDeclustered}) {
    for (auto* make : {&first_round_settle_group, &ddf_stagger_group,
                       &survivor_tail_group}) {
      auto cfg = make();
      cfg.rebuild = rebuild;
      SCOPED_TRACE(raid::to_string(rebuild));
      expect_engine_equivalence(cfg);
    }
  }
}

TEST(BatchEquivalence, SettlePatternsUnderEveryForcedIsa) {
  // The compaction decision (settle test, spare tie, bucket classify)
  // lives in each backend's fused round_dispatch; adversarial schedules
  // must agree with the scalar engine on every runnable tier.
  for (auto* make : {&first_round_settle_group, &ddf_stagger_group,
                     &survivor_tail_group}) {
   for (const auto& cfg : test::with_event_twin(make())) {
    const auto scalar = scalar_trials(cfg, 120, KernelPolicy::kLowered);
    for (util::SimdIsa isa :
         {util::SimdIsa::kGeneric, util::SimdIsa::kAvx512}) {
      if (isa > util::detected_isa()) continue;
      SCOPED_TRACE(util::isa_name(isa));
      ASSERT_EQ(::setenv("RAIDREL_FORCE_ISA", util::isa_name(isa), 1), 0);
      for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                      std::size_t{16}, std::size_t{64}}) {
        SCOPED_TRACE("width " + std::to_string(width));
        expect_trials_identical(
            scalar, batch_trials(cfg, 120, width, KernelPolicy::kLowered));
      }
      ::unsetenv("RAIDREL_FORCE_ISA");
    }
   }
  }
}

TEST(BatchEquivalence, OccupancyAccountingInvariants) {
  // The occupancy profile is bookkeeping over the same compaction the
  // equivalence tests prove correct; its internal identities must hold
  // on any schedule: every lane settles exactly once, capacity counts
  // full rounds, the decile histogram partitions the rounds, and settle
  // rounds are ordered and bounded. The settle groups are latent-credited,
  // whose lanes are forwarded (and leave no occupancy profile), so their
  // event twins run here.
  for (auto* make : {&first_round_settle_group, &ddf_stagger_group,
                     &survivor_tail_group}) {
    const auto cfg = test::event_twin(make());
    const rng::StreamFactory streams(kSeed);
    BatchGroupSimulator simulator(cfg, 16);
    simulator.run_lane(streams, 0, 12);  // partial lane on purpose
    const auto& oc = simulator.occupancy();
    EXPECT_GT(oc.rounds, 0u);
    EXPECT_EQ(oc.lanes_settled, 12u);
    EXPECT_EQ(oc.capacity_lane_rounds, oc.rounds * 12u);
    EXPECT_LE(oc.active_lane_rounds, oc.capacity_lane_rounds);
    EXPECT_GE(oc.active_lane_rounds, oc.rounds);  // >=1 live lane per round
    std::uint64_t hist_total = 0;
    for (const std::uint64_t h : oc.occupancy_hist) hist_total += h;
    EXPECT_EQ(hist_total, oc.rounds);
    EXPECT_GE(oc.settle_rounds_min, 1u);
    EXPECT_LE(oc.settle_rounds_min, oc.settle_rounds_max);
    EXPECT_LE(oc.settle_rounds_max, oc.rounds);
    EXPECT_GE(oc.settle_rounds_sum, 12u * oc.settle_rounds_min);
    EXPECT_LE(oc.settle_rounds_sum, 12u * oc.settle_rounds_max);
  }
  // A forwarded lane reports an empty profile.
  const auto credited = first_round_settle_group();
  ASSERT_EQ(latent_credit_exclusion(credited), nullptr);
  BatchGroupSimulator forwarding(credited, 16);
  forwarding.run_lane(rng::StreamFactory(kSeed), 0, 12);
  EXPECT_EQ(forwarding.occupancy().rounds, 0u);
  EXPECT_EQ(forwarding.occupancy().lanes_settled, 0u);
}

// ---- Runner-level invariance -------------------------------------------

RunOptions runner_options(std::size_t trials, unsigned threads,
                          std::size_t batch_width) {
  RunOptions opt{.trials = trials, .seed = 11, .threads = threads,
                 .bucket_hours = 1000.0};
  opt.batch_width = batch_width;
  opt.double_op_probe = true;
  return opt;
}

void expect_runs_identical(const RunResult& a, const RunResult& b,
                           bool compare_probe) {
  EXPECT_EQ(a.trials(), b.trials());
  EXPECT_EQ(a.op_failures(), b.op_failures());
  EXPECT_EQ(a.latent_defects(), b.latent_defects());
  EXPECT_EQ(a.scrubs_completed(), b.scrubs_completed());
  EXPECT_EQ(a.restores_completed(), b.restores_completed());
  EXPECT_EQ(a.spare_arrivals(), b.spare_arrivals());
  const auto ca = a.cumulative_ddfs_per_1000();
  const auto cb = b.cumulative_ddfs_per_1000();
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i], cb[i]) << "bucket " << i;
  }
  if (compare_probe) {
    // Order-sensitive double sums only match under one deterministic
    // accumulation order, i.e. a single worker.
    EXPECT_EQ(a.total_ddfs_per_1000(Estimator::kDoubleOpProbe),
              b.total_ddfs_per_1000(Estimator::kDoubleOpProbe));
  }
}

TEST(BatchRunnerEquivalence, WidthInvariantAcrossThreads) {
  for (const auto& cfg : test::with_event_twin(spare_pool_group())) {
    for (const unsigned threads : {1u, 4u}) {
      const auto scalar = run_monte_carlo(cfg, runner_options(500, threads, 1));
      for (const std::size_t width : {std::size_t{2}, std::size_t{64}}) {
        const auto batched =
            run_monte_carlo(cfg, runner_options(500, threads, width));
        SCOPED_TRACE("threads " + std::to_string(threads) + " width " +
                     std::to_string(width));
        expect_runs_identical(scalar, batched, threads == 1);
      }
    }
  }
}

TEST(BatchRunnerEquivalence, AwkwardTrialCounts) {
  for (const auto& cfg : test::with_event_twin(busy_group())) {
    const std::size_t width = 64;
    for (const std::size_t trials : {std::size_t{1}, width - 1, width + 1,
                                     3 * width + 5}) {
      SCOPED_TRACE("trials " + std::to_string(trials));
      auto scalar_opt = runner_options(trials, 2, 1);
      scalar_opt.first_trial_index = 1000;
      auto batch_opt = runner_options(trials, 2, width);
      batch_opt.first_trial_index = 1000;
      expect_runs_identical(run_monte_carlo(cfg, scalar_opt),
                            run_monte_carlo(cfg, batch_opt), false);
    }
    EXPECT_THROW(run_monte_carlo(cfg, runner_options(0, 1, width)),
                 ModelError);
  }
}

}  // namespace
}  // namespace raidrel::sim
