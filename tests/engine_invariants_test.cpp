// Property suite over the event-driven engine: invariants that must hold
// for ANY configuration — exercised across a parameter sweep of group
// sizes, redundancies, time scales, scrub policies and spare pools. Cases
// in the latent-credit scope also run as their event twin
// (support/event_twin.h), so both paths are held to every invariant.
#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "sim/group_simulator.h"
#include "stats/weibull.h"
#include "support/event_twin.h"

namespace raidrel::sim {
namespace {

struct EngineCase {
  unsigned drives;
  unsigned redundancy;
  double op_eta;
  double op_beta;
  double ld_eta;       // <= 0: latent defects off
  double scrub_eta;    // <= 0: scrubbing off
  bool spare_pool;
  bool clear_on_ddf;

  [[nodiscard]] std::string label() const {
    std::ostringstream os;
    os << "d" << drives << "_r" << redundancy << "_op" << op_eta << "b"
       << op_beta * 100 << (ld_eta > 0 ? "_ld" : "_nold")
       << (scrub_eta > 0 ? "_scrub" : "") << (spare_pool ? "_pool" : "")
       << (clear_on_ddf ? "_clr" : "");
    std::string s = os.str();
    for (char& c : s) {
      if (c == '.' || c == '+' || c == '-') c = '_';
    }
    return s;
  }
};

// gtest's default printer dumps the parameter's raw bytes, padding
// included, so the printed test IDs changed from build to build. Print
// the label in place of the bytes, keeping gtest's prefix.
void PrintTo(const EngineCase& c, std::ostream* os) {
  *os << sizeof(EngineCase) << "-byte object <" << c.label() << ">";
}

raid::GroupConfig build(const EngineCase& c) {
  raid::SlotModel m;
  m.time_to_op_failure =
      std::make_unique<stats::Weibull>(0.0, c.op_eta, c.op_beta);
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 50.0, 2.0);
  if (c.ld_eta > 0.0) {
    m.time_to_latent_defect =
        std::make_unique<stats::Weibull>(0.0, c.ld_eta, 1.0);
    if (c.scrub_eta > 0.0) {
      m.time_to_scrub =
          std::make_unique<stats::Weibull>(6.0, c.scrub_eta, 3.0);
    }
  }
  auto cfg = raid::make_uniform_group(c.drives, c.redundancy, m, 20000.0);
  cfg.clear_defects_on_ddf_restore = c.clear_on_ddf;
  if (c.spare_pool) cfg.spare_pool = raid::SparePoolConfig{2, 200.0};
  return cfg;
}

std::vector<EngineCase> all_cases() {
  std::vector<EngineCase> cases;
  for (unsigned red : {1u, 2u}) {
    for (double beta : {0.8, 1.0, 1.4}) {
      cases.push_back({red == 1 ? 8u : 10u, red, 3000.0, beta, 800.0, 150.0,
                       false, true});
    }
  }
  cases.push_back({4, 1, 2000.0, 1.12, 500.0, -1.0, false, true});   // no scrub
  cases.push_back({8, 1, 3000.0, 1.12, -1.0, -1.0, false, true});    // no LDs
  cases.push_back({8, 1, 3000.0, 1.12, 800.0, 150.0, true, true});   // pool
  cases.push_back({8, 1, 3000.0, 1.12, 800.0, 150.0, true, false});  // §5 mode
  cases.push_back({3, 1, 1500.0, 1.0, 400.0, 100.0, false, true});   // tiny
  cases.push_back({16, 2, 4000.0, 1.2, 1000.0, 200.0, false, true}); // wide
  return cases;
}

class EngineInvariants : public ::testing::TestWithParam<EngineCase> {
 protected:
  static constexpr int kTrials = 150;
};

TEST_P(EngineInvariants, EventAccountingIsConsistent) {
  for (const auto& cfg : test::with_event_twin(build(GetParam()))) {
    GroupSimulator sim(cfg, KernelPolicy::kLowered, std::nullopt, nullptr,
                       /*double_op_probe=*/true);
    rng::StreamFactory streams(101);
    TrialResult out;
    for (int i = 0; i < kTrials; ++i) {
      auto rs = streams.stream(static_cast<std::uint64_t>(i));
      sim.run_trial(rs, out);
      // Restores never exceed failures; scrubs never exceed defects.
      EXPECT_LE(out.restores_completed, out.op_failures);
      EXPECT_LE(out.scrubs_completed, out.latent_defects);
      // Probe entries are at most one per op failure, each a probability.
      EXPECT_LE(out.double_op_probe.size(), out.op_failures);
      for (const auto& [t, p] : out.double_op_probe) {
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
        EXPECT_GE(t, 0.0);
        EXPECT_LT(t, cfg.mission_hours);
      }
      // Latent credits: at most one per op failure, each a probability;
      // credited trials simulate no defect or scrub events.
      EXPECT_LE(out.latent_credit.size(), out.op_failures);
      for (const auto& [t, p] : out.latent_credit) {
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
        EXPECT_LT(t, cfg.mission_hours);
      }
      if (out.latent_credited) {
        EXPECT_EQ(out.latent_defects, 0u);
        EXPECT_EQ(out.scrubs_completed, 0u);
      } else {
        EXPECT_TRUE(out.latent_credit.empty());
      }
    }
  }
}

TEST_P(EngineInvariants, DdfTimelineIsSane) {
  for (const auto& cfg : test::with_event_twin(build(GetParam()))) {
    GroupSimulator sim(cfg);
    rng::StreamFactory streams(202);
    TrialResult out;
    for (int i = 0; i < kTrials; ++i) {
      auto rs = streams.stream(static_cast<std::uint64_t>(i));
      sim.run_trial(rs, out);
      // DDFs sorted in time, strictly inside the mission, and each one only
      // possible if at least redundancy+1 faults can exist: a DDF needs at
      // least one op failure.
      EXPECT_TRUE(std::is_sorted(
          out.ddfs.begin(), out.ddfs.end(),
          [](const raid::DdfEvent& a, const raid::DdfEvent& b) {
            return a.time < b.time;
          }));
      for (const auto& ddf : out.ddfs) {
        EXPECT_GE(ddf.time, 0.0);
        EXPECT_LT(ddf.time, cfg.mission_hours);
      }
      if (!out.ddfs.empty()) {
        EXPECT_GE(out.op_failures, 1u);
        // A latent-then-op DDF requires at least one latent defect — on a
        // credited trial, a positive credit at that very failure.
        for (const auto& ddf : out.ddfs) {
          if (ddf.kind != raid::DdfKind::kLatentThenOp) continue;
          if (!out.latent_credited) {
            EXPECT_GE(out.latent_defects, 1u);
            continue;
          }
          EXPECT_TRUE(std::any_of(
              out.latent_credit.begin(), out.latent_credit.end(),
              [&](const auto& c) {
                return c.first == ddf.time && c.second > 0.0;
              }));
        }
      }
    }
  }
}

TEST_P(EngineInvariants, SameSeedReproducesExactly) {
  for (const auto& cfg : test::with_event_twin(build(GetParam()))) {
    GroupSimulator sim(cfg, KernelPolicy::kLowered, std::nullopt, nullptr,
                       /*double_op_probe=*/true);
    rng::StreamFactory streams(303);
    TrialResult a, b;
    auto rs1 = streams.stream(7);
    sim.run_trial(rs1, a);
    auto rs2 = streams.stream(7);
    sim.run_trial(rs2, b);
    ASSERT_EQ(a.ddfs.size(), b.ddfs.size());
    for (std::size_t i = 0; i < a.ddfs.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.ddfs[i].time, b.ddfs[i].time);
      EXPECT_EQ(a.ddfs[i].kind, b.ddfs[i].kind);
    }
    EXPECT_EQ(a.op_failures, b.op_failures);
    EXPECT_EQ(a.latent_defects, b.latent_defects);
    EXPECT_EQ(a.scrubs_completed, b.scrubs_completed);
    ASSERT_EQ(a.double_op_probe.size(), b.double_op_probe.size());
    for (std::size_t i = 0; i < a.double_op_probe.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.double_op_probe[i].second,
                       b.double_op_probe[i].second);
    }
    EXPECT_EQ(a.latent_credit, b.latent_credit);
  }
}

TEST_P(EngineInvariants, NoLatentConfigNeverReportsLatentActivity) {
  const auto param = GetParam();
  if (param.ld_eta > 0.0) GTEST_SKIP() << "latent defects enabled";
  const auto cfg = build(param);
  GroupSimulator sim(cfg);
  rng::StreamFactory streams(404);
  TrialResult out;
  for (int i = 0; i < kTrials; ++i) {
    auto rs = streams.stream(static_cast<std::uint64_t>(i));
    sim.run_trial(rs, out);
    EXPECT_EQ(out.latent_defects, 0u);
    EXPECT_EQ(out.scrubs_completed, 0u);
    for (const auto& ddf : out.ddfs) {
      EXPECT_EQ(ddf.kind, raid::DdfKind::kDoubleOperational);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineInvariants, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      return info.param.label();
    });

}  // namespace
}  // namespace raidrel::sim
