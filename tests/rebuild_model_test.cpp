// The m-fault-tolerance generalization (docs/MODEL.md §15): the exact
// Poisson-binomial probe census against brute-force enumeration, and the
// declustered rebuild model's restore-time scaling — pinned by replaying
// traced event histories against a near-deterministic restore law, so
// every individual rebuild's duration can be checked against
// t_base * (n_data / n_surviving_sources) at its failure instant,
// including failures mid-rebuild, spare-pool starvation, and the
// copyback-free one-restore-per-failure contract.
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "analytic/latent_ddf.h"
#include "core/scenario.h"
#include "obs/trace.h"
#include "sim/group_simulator.h"
#include "sim/runner.h"
#include "sim/timing_engine.h"
#include "stats/weibull.h"
#include "util/error.h"
#include "util/math.h"

namespace raidrel::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- Poisson-binomial census ------------------------------------------

double brute_force_tail(const std::vector<double>& p, unsigned at_least) {
  // Enumerate all 2^n outcomes of independent non-identical Bernoullis.
  const std::size_t n = p.size();
  double total = 0.0;
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    unsigned count = 0;
    double prob = 1.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (mask & (std::size_t{1} << j)) {
        prob *= p[j];
        ++count;
      } else {
        prob *= 1.0 - p[j];
      }
    }
    if (count >= at_least) total += prob;
  }
  return total;
}

TEST(PoissonBinomialTail, MatchesBruteForceEnumeration) {
  // Heterogeneous probabilities, every threshold, group-sized n.
  const std::vector<double> p = {0.02, 0.5, 0.13, 0.9, 0.004, 0.33, 0.71};
  std::vector<double> scratch(p.size() + 1);
  for (unsigned k = 0; k <= p.size() + 1; ++k) {
    EXPECT_NEAR(util::poisson_binomial_tail(p.data(), p.size(), k,
                                            scratch.data()),
                brute_force_tail(p, k), 1e-12)
        << "at_least " << k;
  }
}

TEST(PoissonBinomialTail, EdgeCases) {
  std::vector<double> scratch(4);
  const double p[] = {0.3, 0.6, 0.1};
  // at_least 0 is certain; beyond n is impossible; n == 0 degenerates.
  EXPECT_EQ(util::poisson_binomial_tail(p, 3, 0, scratch.data()), 1.0);
  EXPECT_EQ(util::poisson_binomial_tail(p, 3, 4, scratch.data()), 0.0);
  EXPECT_EQ(util::poisson_binomial_tail(nullptr, 0, 0, scratch.data()), 1.0);
  EXPECT_EQ(util::poisson_binomial_tail(nullptr, 0, 1, scratch.data()), 0.0);
}

TEST(PoissonBinomialTail, ReducesToBinomialForEqualProbabilities) {
  // With identical p the Poisson-binomial tail must equal the analytic
  // layer's binomial recurrence (analytic/latent_ddf.h) — the two census
  // formulas the engines and the closed form rely on.
  const double q = 0.17;
  const unsigned n = 9;
  std::vector<double> p(n, q);
  std::vector<double> scratch(n + 1);
  for (unsigned k = 0; k <= n; ++k) {
    EXPECT_NEAR(util::poisson_binomial_tail(p.data(), n, k, scratch.data()),
                analytic::at_least_k_of_n(q, n, k), 1e-12)
        << "at_least " << k;
  }
}

TEST(PoissonBinomialTail, TinyTailsKeepTheirDigits) {
  // Seven partners at p = 1e-6: the tail of three failures is 3.5e-17,
  // below the spacing of doubles near 1, so a tail taken as 1 - P(fewer)
  // would be pure rounding. Both census formulas sum the tail itself.
  const unsigned n = 7;
  const double q = 1e-6;
  const std::vector<double> p(n, q);
  std::vector<double> scratch(n + 1);
  for (unsigned k = 1; k <= 3; ++k) {
    const double exact = brute_force_tail(p, k);
    EXPECT_NEAR(util::poisson_binomial_tail(p.data(), n, k, scratch.data()),
                exact, 1e-9 * exact)
        << "at_least " << k;
    EXPECT_NEAR(analytic::at_least_k_of_n(q, n, k), exact, 1e-9 * exact)
        << "at_least " << k;
  }
}

// ---- Declustered rebuild scaling --------------------------------------

// A group whose restore law is (near-)deterministic: Weibull with a tiny
// characteristic life degenerates to its location, so each rebuild's
// duration is known to ~1e-7 h and the declustered scale factor can be
// verified per event.
constexpr double kBaseRestore = 100.0;
constexpr unsigned kDrives = 8;
constexpr unsigned kRedundancy = 3;
constexpr unsigned kDataDrives = kDrives - kRedundancy;

raid::GroupConfig deterministic_restore_group(bool declustered,
                                              bool with_spare_pool) {
  raid::SlotModel m;
  // Short lifetimes force overlapping rebuilds within a trial.
  m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 500.0, 1.0);
  m.time_to_restore =
      std::make_unique<stats::Weibull>(kBaseRestore, 1e-9, 1.0);
  auto cfg = raid::make_uniform_group(kDrives, kRedundancy, m, 20000.0);
  if (declustered) cfg.rebuild = raid::RebuildModel::kDeclustered;
  if (with_spare_pool) cfg.spare_pool = raid::SparePoolConfig{1, 150.0};
  return cfg;
}

/// Replays one trial's trace, maintaining the group's down/waiting state
/// and (when a spare pool is configured) the pool and FIFO queue, and
/// checks every completed rebuild's duration against the scale fixed at
/// its failure instant. Counters let tests assert the interesting regimes
/// actually occurred.
struct ReplayStats {
  std::size_t restores_checked = 0;
  std::size_t degraded_starts = 0;  ///< failures with another rebuild live
  std::size_t blocked_starts = 0;   ///< rebuilds that waited for a spare
  std::size_t speedups = 0;         ///< healthy-group scale < 1 observed
};

void replay_trial(const obs::TrialTrace& trace,
                  const raid::GroupConfig& cfg, ReplayStats& stats) {
  const bool declustered =
      cfg.rebuild == raid::RebuildModel::kDeclustered;
  struct SlotState {
    bool restoring = false;  ///< down, rebuilding or waiting for a spare
    double start = kInf;     ///< rebuild start (failure or spare arrival)
    double duration = 0.0;   ///< expected duration, fixed at failure
  };
  std::vector<SlotState> slots(cfg.slots.size());
  unsigned spares = cfg.spare_pool ? cfg.spare_pool->capacity : 0;
  std::deque<std::size_t> waiting;

  for (const obs::TraceEvent& e : trace.events()) {
    switch (e.kind) {
      case obs::TraceEventKind::kOpFailure: {
        SlotState& s = slots[e.slot];
        // Copyback-free contract: one failure, one rebuild — a slot can
        // only fail while operational.
        ASSERT_FALSE(s.restoring) << "slot " << e.slot << " failed while "
                                  << "already rebuilding at t=" << e.time;
        unsigned sources = 0;
        for (std::size_t j = 0; j < slots.size(); ++j) {
          if (j != e.slot && !slots[j].restoring) ++sources;
        }
        if (sources < cfg.slots.size() - 1) ++stats.degraded_starts;
        const double scale =
            declustered ? static_cast<double>(kDataDrives) /
                              static_cast<double>(std::max(1u, sources))
                        : 1.0;
        s.restoring = true;
        s.duration = kBaseRestore * scale;
        if (scale < 1.0) ++stats.speedups;
        if (cfg.spare_pool) {
          if (spares > 0) {
            --spares;
            s.start = e.time;
          } else {
            s.start = kInf;  // starts at the next spare arrival
            waiting.push_back(e.slot);
            ++stats.blocked_starts;
          }
        } else {
          s.start = e.time;
        }
        break;
      }
      case obs::TraceEventKind::kSpareArrival: {
        if (!waiting.empty()) {
          const std::size_t slot = waiting.front();
          waiting.pop_front();
          slots[slot].start = e.time;
        } else {
          ++spares;
        }
        break;
      }
      case obs::TraceEventKind::kRestoreDone: {
        SlotState& s = slots[e.slot];
        ASSERT_TRUE(s.restoring) << "slot " << e.slot
                                 << " restored without failing";
        ASSERT_LT(s.start, kInf) << "slot " << e.slot
                                 << " restored while waiting for a spare";
        // The duration fixed at the failure instant is what elapsed —
        // regardless of failures or spare waits in between.
        EXPECT_NEAR(e.time - s.start, s.duration, 1e-3)
            << "slot " << e.slot << " done at t=" << e.time;
        s = SlotState{};
        ++stats.restores_checked;
        break;
      }
      default:
        break;
    }
  }
}

ReplayStats replay_trials(const raid::GroupConfig& cfg, std::size_t trials,
                          std::uint64_t seed) {
  GroupSimulator engine(cfg);
  rng::StreamFactory streams(seed);
  TrialResult out;
  obs::TrialTrace trace(8192);
  ReplayStats stats;
  for (std::size_t i = 0; i < trials; ++i) {
    auto rs = streams.stream(i);
    engine.run_trial(rs, out, &trace);
    EXPECT_EQ(trace.dropped(), 0u);
    replay_trial(trace, cfg, stats);
    if (::testing::Test::HasFatalFailure()) return stats;
  }
  return stats;
}

TEST(DeclusteredRebuild, RestoreScaleFixedAtFailureInstant) {
  const auto cfg = deterministic_restore_group(/*declustered=*/true,
                                               /*with_spare_pool=*/false);
  const ReplayStats stats = replay_trials(cfg, 60, 2026);
  // The regimes this test exists for must actually have occurred.
  EXPECT_GT(stats.restores_checked, 500u);
  EXPECT_GT(stats.degraded_starts, 50u);   // failures mid-rebuild
  EXPECT_GT(stats.speedups, 100u);         // healthy-group scale 5/7 < 1
}

TEST(DeclusteredRebuild, DedicatedSpareDurationsAreUnscaled) {
  // The same replay with the default model: every rebuild takes exactly
  // the base draw, no matter the group state.
  const auto cfg = deterministic_restore_group(/*declustered=*/false,
                                               /*with_spare_pool=*/false);
  const ReplayStats stats = replay_trials(cfg, 40, 2027);
  EXPECT_GT(stats.restores_checked, 300u);
  EXPECT_GT(stats.degraded_starts, 30u);
  EXPECT_EQ(stats.speedups, 0u);
}

TEST(DeclusteredRebuild, SparePoolStarvationKeepsDurationFromFailure) {
  // Declustered scaling composed with an undersized spare pool: a blocked
  // rebuild starts at the spare's arrival but runs for the duration fixed
  // at its failure instant (the scale is NOT re-evaluated), and consumes
  // exactly one restore (copyback-free spare handling).
  const auto cfg = deterministic_restore_group(/*declustered=*/true,
                                               /*with_spare_pool=*/true);
  const ReplayStats stats = replay_trials(cfg, 60, 2028);
  EXPECT_GT(stats.restores_checked, 500u);
  EXPECT_GT(stats.blocked_starts, 50u);
}

TEST(DeclusteredRebuild, TimingEngineRejectsDeclustered) {
  // The §5 pairwise engine pre-generates per-slot timelines and cannot
  // express state-dependent restore scaling; it must refuse loudly.
  const auto cfg = deterministic_restore_group(/*declustered=*/true,
                                               /*with_spare_pool=*/false);
  EXPECT_THROW(TimingDiagramEngine{cfg}, ModelError);
}

TEST(DeclusteredRebuild, ConfigDigestSeparatesRebuildModels) {
  // Dedicated-spare digests must be byte-stable (pre-existing sweep
  // caches stay valid); declustered must key differently.
  const auto dedicated = deterministic_restore_group(false, false);
  auto declustered = dedicated.clone();
  declustered.rebuild = raid::RebuildModel::kDeclustered;
  EXPECT_EQ(config_digest(dedicated),
            config_digest(dedicated.clone()));
  EXPECT_NE(config_digest(dedicated), config_digest(declustered));
}

TEST(DeclusteredRebuild, ScenarioSurfacesRebuildModel) {
  core::ScenarioConfig s;
  s.rebuild = raid::RebuildModel::kDeclustered;
  const auto cfg = s.to_group_config();
  EXPECT_EQ(cfg.rebuild, raid::RebuildModel::kDeclustered);
  EXPECT_NE(s.summary().find("declustered"), std::string::npos);
  core::ScenarioConfig d;
  EXPECT_EQ(d.summary().find("dedicated"), std::string::npos);
}

}  // namespace
}  // namespace raidrel::sim
