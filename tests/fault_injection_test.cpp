// Deterministic fault injection (fault/fault_injection.h): the CLI plan
// grammar, the closed site registry, and the fire-by-hit / fire-by-key
// semantics everything in the fail-safe sweep stack builds on.
#include "fault/fault_injection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>

#include "util/cancel.h"
#include "util/error.h"

namespace {

using raidrel::ModelError;
using raidrel::SiteError;
using namespace raidrel::fault;
namespace util = raidrel::util;

TEST(FaultRegistry, IsClosedSortedAndQueryable) {
  const std::vector<std::string>& sites = registered_sites();
  ASSERT_FALSE(sites.empty());
  EXPECT_TRUE(std::is_sorted(sites.begin(), sites.end()));
  for (const std::string& site : sites) {
    EXPECT_TRUE(is_registered_site(site)) << site;
  }
  // The exact registry is part of the public contract: CI enumerates it
  // and docs/MODEL.md §11 mirrors it. Growing it is fine — silently is not.
  const std::vector<std::string> expected = {
      "cell",           "journal_append", "journal_sync", "manifest_read",
      "manifest_rename", "manifest_write", "pool_task",   "runner_trial",
  };
  EXPECT_EQ(sites, expected);
  EXPECT_FALSE(is_registered_site("no_such_site"));
  EXPECT_FALSE(is_registered_site(""));
}

TEST(FaultPlanParse, GrammarCoversSiteHitKeyAndCount) {
  const FaultPlan plan = FaultPlan::parse(
      "cell,manifest_write:2,runner_trial:1*9,cell:scrub=168,pool_task:3*2");
  ASSERT_EQ(plan.specs().size(), 5u);

  EXPECT_EQ(plan.specs()[0].site, "cell");
  EXPECT_EQ(plan.specs()[0].first_hit, 1u);
  EXPECT_EQ(plan.specs()[0].count, 1u);
  EXPECT_TRUE(plan.specs()[0].key.empty());

  EXPECT_EQ(plan.specs()[1].site, "manifest_write");
  EXPECT_EQ(plan.specs()[1].first_hit, 2u);

  EXPECT_EQ(plan.specs()[2].site, "runner_trial");
  EXPECT_EQ(plan.specs()[2].first_hit, 1u);
  EXPECT_EQ(plan.specs()[2].count, 9u);

  // Non-numeric argument = work-unit key, deterministic under any thread
  // count because it names the unit instead of an arrival index.
  EXPECT_EQ(plan.specs()[3].site, "cell");
  EXPECT_EQ(plan.specs()[3].key, "scrub=168");

  EXPECT_EQ(plan.specs()[4].first_hit, 3u);
  EXPECT_EQ(plan.specs()[4].count, 2u);
}

TEST(FaultPlanParse, RejectsMalformedPlans) {
  EXPECT_THROW(FaultPlan::parse(""), ModelError);
  EXPECT_THROW(FaultPlan::parse("unknown_site"), ModelError);
  EXPECT_THROW(FaultPlan::parse("cell,"), ModelError);
  EXPECT_THROW(FaultPlan::parse("cell:0"), ModelError);      // 1-based hits
  EXPECT_THROW(FaultPlan::parse("cell:"), ModelError);
  EXPECT_THROW(FaultPlan::parse("cell*0"), ModelError);
  EXPECT_THROW(FaultPlan::parse("cell*x"), ModelError);
  EXPECT_THROW(FaultPlan::parse("cell,bogus:1"), ModelError);
}

TEST(FaultPlanArm, ValidatesProgrammaticSpecs) {
  FaultPlan plan;
  plan.arm({"cell", 1, 1, ""});
  EXPECT_THROW(plan.arm({"not_a_site", 1, 1, ""}), ModelError);
  EXPECT_THROW(plan.arm({"cell", 0, 1, ""}), ModelError);
  EXPECT_THROW(plan.arm({"cell", 1, 0, ""}), ModelError);
  EXPECT_EQ(plan.specs().size(), 1u);
}

TEST(FaultInjector, EmptyPlanCountsButNeverThrows) {
  FaultInjector injector{FaultPlan{}};
  for (int i = 0; i < 100; ++i) {
    EXPECT_NO_THROW(injector.check("runner_trial"));
  }
  EXPECT_EQ(injector.hits("runner_trial"), 100u);
  EXPECT_EQ(injector.injected("runner_trial"), 0u);
  EXPECT_EQ(injector.total_injected(), 0u);
}

TEST(FaultInjector, FiresExactlyTheArmedHitWindow) {
  FaultInjector injector{FaultPlan::parse("runner_trial:3*2")};
  EXPECT_NO_THROW(injector.check("runner_trial"));  // hit 1
  EXPECT_NO_THROW(injector.check("runner_trial"));  // hit 2
  EXPECT_THROW(injector.check("runner_trial"), InjectedFault);  // hit 3
  EXPECT_THROW(injector.check("runner_trial"), InjectedFault);  // hit 4
  EXPECT_NO_THROW(injector.check("runner_trial"));  // hit 5: window over
  EXPECT_EQ(injector.hits("runner_trial"), 5u);
  EXPECT_EQ(injector.injected("runner_trial"), 2u);
}

TEST(FaultInjector, ReplaysBitIdenticallyAcrossInstances) {
  // The whole point: the fire pattern is a pure function of hit counts.
  auto pattern = [] {
    FaultInjector injector{FaultPlan::parse("cell:2*3,cell:7")};
    std::string fired;
    for (int i = 0; i < 10; ++i) {
      try {
        injector.check("cell");
        fired += '.';
      } catch (const InjectedFault&) {
        fired += 'X';
      }
    }
    return fired;
  };
  const std::string first = pattern();
  EXPECT_EQ(first, ".XXX..X...");
  EXPECT_EQ(pattern(), first);
}

TEST(FaultInjector, KeyedSpecsFireOnMatchingWorkUnitOnly) {
  FaultInjector injector{FaultPlan::parse("cell:scrub=168*2")};
  EXPECT_NO_THROW(injector.check("cell", "scrub=48"));
  EXPECT_THROW(injector.check("cell", "scrub=168"), InjectedFault);
  EXPECT_NO_THROW(injector.check("cell", "scrub=336"));
  EXPECT_THROW(injector.check("cell", "scrub=168"), InjectedFault);
  // Budget of 2 consumed: the key now passes, which is what lets a
  // retried cell recover deterministically.
  EXPECT_NO_THROW(injector.check("cell", "scrub=168"));
  EXPECT_EQ(injector.injected("cell"), 2u);
  EXPECT_EQ(injector.hits("cell"), 5u);
}

TEST(FaultInjector, ThrownFaultCarriesSiteHitAndKey) {
  FaultInjector injector{FaultPlan::parse("manifest_write:1")};
  try {
    injector.check("manifest_write", "path.json");
    FAIL() << "armed site did not fire";
  } catch (const InjectedFault& e) {
    EXPECT_EQ(e.site(), "manifest_write");
    EXPECT_EQ(e.hit(), 1u);
    EXPECT_NE(std::string(e.what()).find("manifest_write"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("path.json"), std::string::npos);
    // Generic handlers catch it as a SiteError and recover the site.
    const SiteError& as_site = e;
    EXPECT_EQ(as_site.site(), "manifest_write");
  }
}

TEST(FaultPlanParse, GrammarCoversDelayAndHangKinds) {
  const FaultPlan plan = FaultPlan::parse(
      "cell:3@250,manifest_write@hang,cell:scrub=48@hang,runner_trial:1*9@15");
  ASSERT_EQ(plan.specs().size(), 4u);

  EXPECT_EQ(plan.specs()[0].site, "cell");
  EXPECT_EQ(plan.specs()[0].first_hit, 3u);
  EXPECT_EQ(plan.specs()[0].delay_ms, 250.0);
  EXPECT_TRUE(plan.specs()[0].is_delay());

  EXPECT_EQ(plan.specs()[1].site, "manifest_write");
  EXPECT_TRUE(std::isinf(plan.specs()[1].delay_ms));

  // The kind suffix composes with key matching and fire counts.
  EXPECT_EQ(plan.specs()[2].key, "scrub=48");
  EXPECT_TRUE(std::isinf(plan.specs()[2].delay_ms));
  EXPECT_EQ(plan.specs()[3].count, 9u);
  EXPECT_EQ(plan.specs()[3].delay_ms, 15.0);

  // Specs without the suffix keep the throwing kind.
  EXPECT_LT(FaultPlan::parse("cell").specs()[0].delay_ms, 0.0);
  EXPECT_FALSE(FaultPlan::parse("cell").specs()[0].is_delay());
}

TEST(FaultPlanParse, RejectsMalformedDelays) {
  EXPECT_THROW(FaultPlan::parse("cell@"), ModelError);
  EXPECT_THROW(FaultPlan::parse("cell@abc"), ModelError);
  EXPECT_THROW(FaultPlan::parse("cell@-5"), ModelError);
  EXPECT_THROW(FaultPlan::parse("cell@2.5"), ModelError);  // whole ms only
}

TEST(FaultInjector, DelayKindSleepsThenReturnsNormally) {
  FaultInjector injector{FaultPlan::parse("runner_trial:1@20")};
  const auto start = std::chrono::steady_clock::now();
  EXPECT_NO_THROW(injector.check("runner_trial"));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed, 0.02);  // sleep_for guarantees at least the duration
  EXPECT_EQ(injector.delayed("runner_trial"), 1u);
  EXPECT_EQ(injector.injected("runner_trial"), 0u);
  // The window is one hit wide: the next check is undelayed.
  EXPECT_NO_THROW(injector.check("runner_trial"));
  EXPECT_EQ(injector.delayed("runner_trial"), 1u);
  EXPECT_EQ(injector.hits("runner_trial"), 2u);
}

TEST(FaultInjector, HangWithoutCancellationContextIsRefused) {
  // Wedging a thread nothing can unwedge must fail loudly, not deadlock.
  FaultInjector injector{FaultPlan::parse("cell@hang")};
  ASSERT_EQ(util::current_cancel_token(), nullptr);
  EXPECT_THROW(injector.check("cell"), ModelError);
  EXPECT_EQ(injector.injected("cell"), 0u);
}

TEST(FaultInjector, HangBreaksOnTheThreadsCancellationContext) {
  FaultInjector injector{FaultPlan::parse("cell@hang")};
  util::CancelToken token;
  token.request_cancel();
  const util::CancelScope scope(&token);
  try {
    injector.check("cell");
    FAIL() << "hang did not observe the cancelled token";
  } catch (const util::OperationCancelled& e) {
    EXPECT_EQ(e.reason(), util::CancelReason::kCancelled);
  }
  // A broken hang is both a delay that fired and an observed failure.
  EXPECT_EQ(injector.delayed("cell"), 1u);
  EXPECT_EQ(injector.injected("cell"), 1u);
}

TEST(FaultInjector, RefusesUnregisteredCheckSites) {
  FaultInjector injector{FaultPlan{}};
  // A call site that is not enumerable by CI must fail loudly, not count
  // quietly.
  EXPECT_THROW(injector.check("made_up_site"), ModelError);
}

}  // namespace
