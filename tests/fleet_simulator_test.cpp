#include "sim/fleet_simulator.h"

#include "sim/runner.h"

#include <cmath>
#include <cstring>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/presets.h"
#include "obs/run_telemetry.h"
#include "stats/weibull.h"
#include "support/degenerate.h"
#include "util/error.h"
#include "util/math.h"

namespace raidrel::sim {
namespace {

using raid::GroupConfig;
using raid::SlotModel;
using stats::Degenerate;

SlotModel scripted_slot(double op, double restore, double ld = 1e18,
                        double scrub = -1.0) {
  SlotModel m;
  m.time_to_op_failure = std::make_unique<Degenerate>(op);
  m.time_to_restore = std::make_unique<Degenerate>(restore);
  m.time_to_latent_defect = std::make_unique<Degenerate>(ld);
  if (scrub >= 0.0) m.time_to_scrub = std::make_unique<Degenerate>(scrub);
  return m;
}

// A 6-drive RAID-5 group busy enough that every handler fires many times
// per mission: overlapping failures, scrubbed defects, DDFs.
GroupConfig busy_group() {
  SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 3000.0, 1.1);
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 100.0, 2.0);
  m.time_to_latent_defect =
      std::make_unique<stats::Weibull>(0.0, 2000.0, 1.0);
  m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, 300.0, 3.0);
  return raid::make_uniform_group(6, 1, m, 20000.0);
}

TEST(FleetSimulator, SingleGroupMatchesGroupSimulatorExactly) {
  // A fleet of one group must reproduce GroupSimulator draw for draw —
  // same events, same RNG consumption, same probe — for every feature of
  // the group model. The starved case pits the fleet's shared pool against
  // the same pool as the group's private one.
  struct Case {
    const char* name;
    GroupConfig group;
    std::optional<raid::SparePoolConfig> pool;
  };
  std::vector<Case> cases;
  cases.push_back({"base", core::presets::base_case().to_group_config(), {}});
  cases.push_back({"starved pool", busy_group(),
                   raid::SparePoolConfig{1, 1500.0}});
  cases.push_back({"stripe zones", busy_group(), {}});
  cases.back().group.stripe_zones = 3;
  cases.push_back({"declustered", busy_group(), {}});
  cases.back().group.rebuild = raid::RebuildModel::kDeclustered;
  cases.push_back({"reconstruction defects", busy_group(), {}});
  cases.back().group.reconstruction_defect_probability = 0.3;
  cases.push_back({"defects kept after DDF", busy_group(), {}});
  cases.back().group.clear_defects_on_ddf_restore = false;

  for (const Case& c : cases) {
    GroupConfig private_pool = c.group.clone();
    private_pool.spare_pool = c.pool;
    FleetConfig fleet;
    fleet.groups.push_back(c.group.clone());
    fleet.shared_pool = c.pool;
    GroupSimulator single(private_pool, KernelPolicy::kLowered, std::nullopt,
                          nullptr, /*double_op_probe=*/true);
    FleetSimulator multi(fleet, KernelPolicy::kLowered, nullptr,
                         /*double_op_probe=*/true);
    std::uint64_t ddfs = 0;
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
      rng::RandomStream rs1(seed), rs2(seed);
      TrialResult a;
      FleetTrialResult b;
      single.run_trial(rs1, a);
      multi.run_trial(rs2, b);
      const TrialResult& g0 = b.per_group[0];
      ASSERT_EQ(a.ddfs.size(), g0.ddfs.size()) << c.name << " " << seed;
      for (std::size_t i = 0; i < a.ddfs.size(); ++i) {
        EXPECT_EQ(a.ddfs[i].time, g0.ddfs[i].time) << c.name;
        EXPECT_EQ(a.ddfs[i].kind, g0.ddfs[i].kind) << c.name;
      }
      EXPECT_EQ(a.double_op_probe, g0.double_op_probe) << c.name << seed;
      EXPECT_EQ(a.op_failures, g0.op_failures) << c.name << " " << seed;
      EXPECT_EQ(a.latent_defects, g0.latent_defects) << c.name << seed;
      EXPECT_EQ(a.scrubs_completed, g0.scrubs_completed) << c.name << seed;
      EXPECT_EQ(a.restores_completed, g0.restores_completed) << c.name;
      EXPECT_EQ(a.spare_arrivals, g0.spare_arrivals) << c.name << seed;
      ddfs += a.ddfs.size();
    }
    EXPECT_GT(ddfs, 0u) << c.name << ": the case never reached a DDF";
  }
}

// bench_shared_spares' fleet: 50 aging 8-drive RAID-5 groups over 2.5 years.
// Its exponential TTLd puts it in the latent-credit scope; latent_beta != 1
// keeps it on the event path.
FleetConfig aging_fleet(std::optional<raid::SparePoolConfig> pool,
                        double latent_beta = 1.0) {
  FleetConfig fleet;
  for (int g = 0; g < 50; ++g) {
    SlotModel m;
    m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 23000.0, 1.12);
    m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 12.0, 2.0);
    m.time_to_latent_defect =
        std::make_unique<stats::Weibull>(0.0, 9259.0, latent_beta);
    m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, 168.0, 3.0);
    fleet.groups.push_back(raid::make_uniform_group(8, 1, m, 21900.0));
  }
  fleet.shared_pool = pool;
  return fleet;
}

template <typename T>
std::uint64_t mix(std::uint64_t h, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  return obs::fnv1a64({bytes, sizeof(T)}, h);
}

// One-group tests cannot see cross-group event order: which group's event
// runs first and which group the pool's FIFO serves next. This digest of
// every group's DDF history, latent credits and counters, plus the backlog
// at the end of each mission, pins both for a 50-group fleet.
void expect_fleet_history_digests(double latent_beta,
                                  const std::uint64_t (&expected)[3]) {
  const std::optional<raid::SparePoolConfig> pools[] = {
      std::nullopt, raid::SparePoolConfig{2, 168.0},
      raid::SparePoolConfig{4, 168.0}};
  for (std::size_t p = 0; p < 3; ++p) {
    const FleetConfig fleet = aging_fleet(pools[p], latent_beta);
    FleetSimulator sim(fleet);
    const rng::StreamFactory streams(20070625);
    FleetTrialResult out;
    std::uint64_t h = obs::fnv1a64("");
    for (std::uint64_t i = 0; i < 300; ++i) {
      auto rs = streams.stream(i);
      sim.run_trial(rs, out);
      for (const TrialResult& g : out.per_group) {
        h = mix(h, g.ddfs.size());
        for (const auto& d : g.ddfs) {
          h = mix(h, d.time);
          h = mix(h, d.kind);
        }
        for (const auto& [t, credit] : g.latent_credit) {
          h = mix(h, t);
          h = mix(h, credit);
        }
        h = mix(h, g.op_failures);
        h = mix(h, g.latent_defects);
        h = mix(h, g.scrubs_completed);
        h = mix(h, g.restores_completed);
        h = mix(h, g.spare_arrivals);
      }
      h = mix(h, sim.waiting_drives_at_end());
    }
    EXPECT_EQ(h, expected[p]) << "pool case " << p;
  }
}

TEST(FleetSimulator, MultiGroupHistoryDigestIsPinned) {
  // The fleet is latent-credited: these digests pin the credited path.
  expect_fleet_history_digests(1.0, {17819431534426896993ull,
                                     1674705057730592444ull,
                                     12821165610119342079ull});
}

TEST(FleetSimulator, MultiGroupEventHistoryDigestIsPinned) {
  // The same fleet with beta_ld = 1.2 stays on the event path; these
  // digests were computed on the sources before the latent credit existed.
  expect_fleet_history_digests(1.2, {13871893921399182348ull,
                                     2980961146552491470ull,
                                     15027248184009925176ull});
}

TEST(FleetSimulator, CrossGroupTiesGoToTheLowestGroup) {
  // Weibull laws whose scale is far below one ulp of their location draw
  // exactly the location: every drive of every group fails at 1000 h, and
  // every rebuild takes 10 h. The spares taken at 1000 h come back after a
  // 1010 h lead, at 2010 h, the instant the rebuilt drives fail again.
  // 37 groups is not a power of two, so a tree over the group indices has
  // padded leaves.
  using obs::TraceEventKind;
  constexpr std::uint32_t kGroups = 37;
  constexpr std::uint32_t kDrives = 3;
  FleetConfig fleet;
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    SlotModel m;
    m.time_to_op_failure =
        std::make_unique<stats::Weibull>(1000.0, 1e-20, 1.5);
    m.time_to_restore = std::make_unique<stats::Weibull>(10.0, 1e-20, 2.0);
    m.time_to_latent_defect = std::make_unique<Degenerate>(1e18);
    fleet.groups.push_back(raid::make_uniform_group(kDrives, 1, m, 2500.0));
  }
  fleet.shared_pool = raid::SparePoolConfig{kGroups * kDrives, 1010.0};
  FleetSimulator sim(fleet);
  rng::RandomStream rs(1);
  FleetTrialResult out;
  obs::TrialTrace trace(8192);
  sim.run_trial(rs, out, &trace);
  ASSERT_EQ(trace.dropped(), 0u);

  // Per instant, each slot-event kind in dispatch order, as g * kDrives + s.
  std::map<std::pair<double, TraceEventKind>, std::vector<std::uint32_t>> order;
  std::size_t arrivals = 0;
  const auto& events = trace.events();
  for (std::size_t k = 0; k < events.size(); ++k) {
    const obs::TraceEvent& e = events[k];
    if (e.kind == TraceEventKind::kSpareArrival) {
      EXPECT_EQ(e.time, 2010.0);
      // A spare arriving at an instant goes before every slot event of it.
      ASSERT_GT(k, 0u);
      EXPECT_TRUE(events[k - 1].time < e.time ||
                  events[k - 1].kind == TraceEventKind::kSpareArrival)
          << "event " << k;
      ++arrivals;
      continue;
    }
    if (k > 0 && events[k - 1].time == e.time &&
        events[k - 1].slot != obs::TraceEvent::kNoSlot) {
      // Within an instant, events run in ascending (group, slot) order.
      EXPECT_LE(std::pair(events[k - 1].group, events[k - 1].slot),
                std::pair(e.group, e.slot))
          << "event " << k;
    }
    if (e.kind != TraceEventKind::kDdf) {
      order[{e.time, e.kind}].push_back(e.group * kDrives + e.slot);
    }
  }
  EXPECT_EQ(arrivals, kGroups * kDrives);

  std::vector<std::uint32_t> every_slot(kGroups * kDrives);
  std::iota(every_slot.begin(), every_slot.end(), 0u);
  const std::map<std::pair<double, TraceEventKind>,
                 std::vector<std::uint32_t>>
      expected = {{{1000.0, TraceEventKind::kOpFailure}, every_slot},
                  {{1010.0, TraceEventKind::kRestoreDone}, every_slot},
                  {{2010.0, TraceEventKind::kOpFailure}, every_slot},
                  {{2020.0, TraceEventKind::kRestoreDone}, every_slot}};
  EXPECT_EQ(order, expected);
}

TEST(FleetSimulator, SharedPoolContentionAcrossGroups) {
  // Two 2-drive groups, one shared spare with a 100 h lead. Group 0's
  // drive fails at 50 and takes the spare; group 1's failure at 80 must
  // wait for the 150 arrival.
  FleetConfig fleet;
  for (int g = 0; g < 2; ++g) {
    GroupConfig cfg;
    cfg.redundancy = 1;
    cfg.mission_hours = 400.0;
    cfg.slots.push_back(scripted_slot(g == 0 ? 50.0 : 80.0, 10.0));
    cfg.slots.push_back(scripted_slot(1e18, 10.0));
    fleet.groups.push_back(std::move(cfg));
  }
  fleet.shared_pool = raid::SparePoolConfig{1, 100.0};
  FleetSimulator sim(fleet);
  rng::RandomStream rs(1);
  FleetTrialResult out;
  sim.run_trial(rs, out);
  // FIFO service across groups. Worked timeline: G0 takes the spare at 50
  // (restored 60, reorder->150); G1 waits from 80; G0's second failure at
  // 110 queues behind it; the 150 arrival serves G1 (restored 160,
  // reorder->250); 250 serves G0 (restored 260, reorder->350); G1 fails
  // again at 240 and is served at 350 (restored 360); G0's third failure
  // at 310 is still waiting when the mission ends at 400.
  EXPECT_EQ(out.per_group[0].op_failures, 3u);   // 50, 110, 310
  EXPECT_EQ(out.per_group[0].restores_completed, 2u);  // 60, 260
  EXPECT_EQ(out.per_group[1].op_failures, 2u);   // 80, 240
  EXPECT_EQ(out.per_group[1].restores_completed, 2u);  // 160, 360
  // No DDFs: each group's *other* drive never fails, and fault census is
  // per group — group 1 waiting does not endanger group 0.
  EXPECT_EQ(out.total_ddfs(), 0u);
}

TEST(FleetSimulator, PoolStarvationCreatesCorrelatedExposure) {
  // A failure burst across many groups with a tiny shared pool leaves
  // drives waiting; statistically this must produce more DDFs than ample
  // sparing.
  auto make_fleet = [](unsigned capacity) {
    FleetConfig fleet;
    for (int g = 0; g < 10; ++g) {
      SlotModel m;
      m.time_to_op_failure =
          std::make_unique<stats::Weibull>(0.0, 4000.0, 1.0);
      m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 50.0, 2.0);
      fleet.groups.push_back(raid::make_uniform_group(4, 1, m, 20000.0));
    }
    fleet.shared_pool = raid::SparePoolConfig{capacity, 500.0};
    return fleet;
  };
  const auto starved_cfg = make_fleet(1);
  const auto ample_cfg = make_fleet(50);
  FleetSimulator starved(starved_cfg);
  FleetSimulator ample(ample_cfg);
  rng::StreamFactory streams(7);
  FleetTrialResult out;
  std::size_t ddfs_starved = 0, ddfs_ample = 0;
  for (std::uint64_t i = 0; i < 400; ++i) {
    auto rs1 = streams.stream(i);
    starved.run_trial(rs1, out);
    ddfs_starved += out.total_ddfs();
    auto rs2 = streams.stream(i);
    ample.run_trial(rs2, out);
    ddfs_ample += out.total_ddfs();
  }
  EXPECT_GT(ddfs_starved, 2 * ddfs_ample);
}

TEST(FleetSimulator, AmpleSharedPoolMatchesIndependentGroups) {
  // With a huge pool and instant-ish replenishment the groups cannot
  // interact: fleet aggregate statistics match independent single-group
  // runs within Monte Carlo noise.
  const auto group = core::presets::base_case().to_group_config();
  FleetConfig fleet;
  for (int g = 0; g < 4; ++g) fleet.groups.push_back(group.clone());
  fleet.shared_pool = raid::SparePoolConfig{1000, 1.0};
  FleetSimulator sim(fleet);
  rng::StreamFactory streams(9);
  FleetTrialResult out;
  util::RunningStats fleet_ddfs;
  const int trials = 1500;
  for (std::uint64_t i = 0; i < trials; ++i) {
    auto rs = streams.stream(i);
    sim.run_trial(rs, out);
    fleet_ddfs.add(static_cast<double>(out.total_ddfs()));
  }
  GroupSimulator single(group);
  TrialResult single_out;
  util::RunningStats single_ddfs;
  rng::StreamFactory streams2(10);
  for (std::uint64_t i = 0; i < trials; ++i) {
    auto rs = streams2.stream(i);
    single.run_trial(rs, single_out);
    single_ddfs.add(static_cast<double>(single_out.ddfs.size()));
  }
  const double sem = std::sqrt(fleet_ddfs.sem() * fleet_ddfs.sem() +
                               16.0 * single_ddfs.sem() * single_ddfs.sem());
  EXPECT_NEAR(fleet_ddfs.mean(), 4.0 * single_ddfs.mean(), 5.0 * sem);
}

TEST(FleetRunner, NormalizationMatchesSingleGroupRunner) {
  // Fleet of independent groups (huge pool): per-1000-group-mission
  // normalization must land on the single-group runner's numbers.
  const auto group = core::presets::base_case().to_group_config();
  FleetConfig fleet;
  for (int g = 0; g < 5; ++g) fleet.groups.push_back(group.clone());
  fleet.shared_pool = raid::SparePoolConfig{10000, 1.0};
  const auto fleet_run = run_fleet_monte_carlo(
      fleet, {.trials = 800, .seed = 21, .threads = 0,
              .bucket_hours = 730.0, .double_op_probe = true});
  EXPECT_EQ(fleet_run.trials(), 4000u);  // 800 trials x 5 groups
  const auto single_run = run_monte_carlo(
      group, {.trials = 4000, .seed = 22, .threads = 0,
              .bucket_hours = 730.0, .double_op_probe = true});
  const double sem = fleet_run.total_ddfs_per_1000_sem() +
                     single_run.total_ddfs_per_1000_sem();
  EXPECT_NEAR(fleet_run.total_ddfs_per_1000(),
              single_run.total_ddfs_per_1000(), 6.0 * sem);
  // The fleet runs the same probe, so its per-1000-group-mission estimate
  // lands on the single-group runner's too. The counting band above is
  // ~100x the probe's value, so it would pass a missing probe; the band
  // here is 6 SDs of the difference, from the probe's measured spread
  // (SD ~1.6% of the mean over 30 seeds at 4000 group-missions).
  const double single_probe =
      single_run.total_ddfs_per_1000(Estimator::kDoubleOpProbe);
  EXPECT_GT(single_probe, 0.0);
  EXPECT_NEAR(fleet_run.total_ddfs_per_1000(Estimator::kDoubleOpProbe),
              single_probe, 0.14 * single_probe);
}

TEST(FleetRunner, ThreadCountDoesNotChangeCounts) {
  FleetConfig fleet;
  for (int g = 0; g < 3; ++g) {
    SlotModel m;
    m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 4000.0, 1.0);
    m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 50.0, 2.0);
    fleet.groups.push_back(raid::make_uniform_group(4, 1, m, 20000.0));
  }
  fleet.shared_pool = raid::SparePoolConfig{2, 200.0};
  const RunOptions base{.trials = 200, .seed = 23, .threads = 1,
                        .bucket_hours = 1000.0};
  RunOptions multi = base;
  multi.threads = 4;
  const auto a = run_fleet_monte_carlo(fleet, base);
  const auto b = run_fleet_monte_carlo(fleet, multi);
  EXPECT_DOUBLE_EQ(a.total_ddfs_per_1000(), b.total_ddfs_per_1000());
  EXPECT_EQ(a.op_failures(), b.op_failures());
}

TEST(FleetSimulator, Validation) {
  FleetConfig empty;
  EXPECT_THROW(FleetSimulator{empty}, ModelError);

  // Mission mismatch.
  FleetConfig mismatch;
  mismatch.groups.push_back(core::presets::base_case().to_group_config());
  auto other = core::presets::base_case().to_group_config();
  other.mission_hours = 1000.0;
  mismatch.groups.push_back(std::move(other));
  EXPECT_THROW(FleetSimulator{mismatch}, ModelError);

  // Private pools under a shared one.
  FleetConfig pools;
  auto g = core::presets::base_case().to_group_config();
  g.spare_pool = raid::SparePoolConfig{1, 24.0};
  pools.groups.push_back(std::move(g));
  pools.shared_pool = raid::SparePoolConfig{4, 24.0};
  EXPECT_THROW(FleetSimulator{pools}, ModelError);

  // Private pools without a shared one.
  pools.shared_pool.reset();
  EXPECT_THROW(FleetSimulator{pools}, ModelError);
}

}  // namespace
}  // namespace raidrel::sim
