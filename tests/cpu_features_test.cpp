// Runtime ISA detection and the RAIDREL_FORCE_ISA override
// (util/cpu_features.h). The override is the lever the CI matrix pulls
// to run every SIMD backend on one machine, so its contract is pinned
// here: names round-trip, forcing clamps *down* but never up, a typo
// throws instead of silently running the wrong backend, and
// active_isa() re-reads the environment so tests can flip it around
// engine construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "sim/lane_ops.h"
#include "sim/thread_pool.h"
#include "support/hostile_bytes.h"
#include "util/cpu_features.h"
#include "util/error.h"

namespace raidrel::util {
namespace {

/// RAII environment override (nullptr unsets the variable) that restores
/// the previous value, so a failing assertion cannot leak the override
/// into later tests and a suite run under a forced ISA keeps it.
class ScopedForceIsa {
 public:
  explicit ScopedForceIsa(const char* value) {
    if (const char* prev = std::getenv("RAIDREL_FORCE_ISA")) prev_ = prev;
    if (value != nullptr) {
      ::setenv("RAIDREL_FORCE_ISA", value, 1);
    } else {
      ::unsetenv("RAIDREL_FORCE_ISA");
    }
  }
  ~ScopedForceIsa() {
    if (prev_) {
      ::setenv("RAIDREL_FORCE_ISA", prev_->c_str(), 1);
    } else {
      ::unsetenv("RAIDREL_FORCE_ISA");
    }
  }

 private:
  std::optional<std::string> prev_;
};

TEST(CpuFeatures, NamesRoundTripThroughParse) {
  for (SimdIsa isa : {SimdIsa::kGeneric, SimdIsa::kAvx512}) {
    const auto parsed = parse_isa(isa_name(isa));
    ASSERT_TRUE(parsed.has_value()) << isa_name(isa);
    EXPECT_EQ(*parsed, isa);
  }
}

TEST(CpuFeatures, ParseRejectsUnknownSpellings) {
  EXPECT_FALSE(parse_isa("").has_value());
  EXPECT_FALSE(parse_isa("AVX2").has_value());  // canonical is lower-case
  EXPECT_FALSE(parse_isa("avx-512").has_value());
  EXPECT_FALSE(parse_isa("sse42").has_value());
  // No SSE2 or AVX2 tier exists (neither beat generic).
  EXPECT_FALSE(parse_isa("sse2").has_value());
  EXPECT_FALSE(parse_isa("avx2").has_value());
}

TEST(CpuFeatures, DetectedIsaIsAtLeastTheBaseline) {
  // kGeneric runs anywhere; kAvx512 is the only tier above it.
  const SimdIsa detected = detected_isa();
  EXPECT_TRUE(detected == SimdIsa::kGeneric || detected == SimdIsa::kAvx512)
      << static_cast<int>(detected);
#if !defined(__x86_64__) && !defined(_M_X64)
  EXPECT_EQ(detected, SimdIsa::kGeneric);
#endif
}

TEST(CpuFeatures, ResolveClampsDownwardOnly) {
  // Forcing below the detected tier is honored exactly...
  EXPECT_EQ(resolve_isa(SimdIsa::kAvx512, "generic"), SimdIsa::kGeneric);
  EXPECT_EQ(resolve_isa(SimdIsa::kAvx512, "avx512"), SimdIsa::kAvx512);
  // ...forcing above it clamps to the hardware (running wider would be
  // an illegal instruction, not a test of anything).
  EXPECT_EQ(resolve_isa(SimdIsa::kGeneric, "avx512"), SimdIsa::kGeneric);
  // Empty/absent override keeps the detected tier.
  EXPECT_EQ(resolve_isa(SimdIsa::kAvx512, ""), SimdIsa::kAvx512);
  EXPECT_EQ(resolve_isa(SimdIsa::kGeneric, ""), SimdIsa::kGeneric);
}

TEST(CpuFeatures, ResolveThrowsOnUnparseableToken) {
  EXPECT_THROW(resolve_isa(SimdIsa::kAvx512, "avx1024"), ModelError);
  EXPECT_THROW(resolve_isa(SimdIsa::kAvx512, "SSE2"), ModelError);
  // The removed tiers are unknown tokens, not silent aliases.
  EXPECT_THROW(resolve_isa(SimdIsa::kAvx512, "sse2"), ModelError);
  EXPECT_THROW(resolve_isa(SimdIsa::kAvx512, "avx2"), ModelError);
}

TEST(CpuFeatures, ActiveIsaFollowsTheEnvironment) {
  const SimdIsa detected = detected_isa();
  const ScopedForceIsa clean(nullptr);  // CI may run the suite forced
  EXPECT_EQ(active_isa(), detected);  // no override in a clean env
  {
    ScopedForceIsa force("generic");
    EXPECT_EQ(active_isa(), SimdIsa::kGeneric);
  }
  EXPECT_EQ(active_isa(), detected);  // re-read after the override ends
}

TEST(CpuFeatures, LaneOpsTableMatchesForcedIsa) {
  // The engine-facing dispatch (sim::lane_ops) resolves through
  // active_isa(), so forcing the environment must swap the table.
  for (SimdIsa isa : {SimdIsa::kGeneric, SimdIsa::kAvx512}) {
    if (isa > detected_isa()) continue;
    ScopedForceIsa force(isa_name(isa));
    EXPECT_EQ(sim::lane_ops().isa, isa) << isa_name(isa);
  }
}

TEST(CpuFeatures, LaneOpsForClampsLikeResolve) {
  const SimdIsa detected = detected_isa();
  EXPECT_EQ(sim::lane_ops_for(SimdIsa::kGeneric).isa, SimdIsa::kGeneric);
  // A request above the hardware degrades to the widest runnable tier.
  EXPECT_EQ(sim::lane_ops_for(SimdIsa::kAvx512).isa,
            detected < SimdIsa::kAvx512 ? detected : SimdIsa::kAvx512);
}

// ---- NUMA topology ------------------------------------------------------

/// Same RAII discipline for the node-count override.
class ScopedForceNodes {
 public:
  explicit ScopedForceNodes(const char* value) {
    ::setenv("RAIDREL_FORCE_NUMA_NODES", value, 1);
  }
  ~ScopedForceNodes() { ::unsetenv("RAIDREL_FORCE_NUMA_NODES"); }
};

TEST(CpuTopologyTest, ParseCpuListHandlesKernelFormat) {
  EXPECT_EQ(parse_cpu_list("0-3"), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(parse_cpu_list("0-3,8,10-11"),
            (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  EXPECT_EQ(parse_cpu_list("7"), (std::vector<int>{7}));
  // The sysfs file ends in a newline; stray blanks are tolerated.
  EXPECT_EQ(parse_cpu_list("0-1\n"), (std::vector<int>{0, 1}));
  EXPECT_EQ(parse_cpu_list(" 2 , 4 "), (std::vector<int>{2, 4}));
  // Duplicates and overlapping ranges collapse, output stays sorted.
  EXPECT_EQ(parse_cpu_list("3,1,1-2"), (std::vector<int>{1, 2, 3}));
}

TEST(CpuTopologyTest, ParseCpuListSkipsMalformedSegments) {
  EXPECT_TRUE(parse_cpu_list("").empty());
  EXPECT_TRUE(parse_cpu_list("\n").empty());
  EXPECT_TRUE(parse_cpu_list("abc").empty());
  EXPECT_TRUE(parse_cpu_list("5-2").empty());   // descending range
  EXPECT_TRUE(parse_cpu_list("-3").empty());    // negative id
  // A bad segment never poisons its neighbors.
  EXPECT_EQ(parse_cpu_list("0,junk,2-2x,3"), (std::vector<int>{0, 3}));
}

TEST(CpuTopologyTest, ParseCpuListSkipsIdsPastTheCap) {
  EXPECT_EQ(parse_cpu_list("1048575"), (std::vector<int>{kCpuIdLimit - 1}));
  // One id past the cap drops the whole range, not just its tail (the
  // sscanf parser returned all 1,048,577 ids here).
  EXPECT_TRUE(parse_cpu_list("0-1048576").empty());
  EXPECT_EQ(parse_cpu_list("0-1,1048576,2"), (std::vector<int>{0, 1, 2}));
  // A range ending at INT_MAX walked the loop counter past INT_MAX, and
  // %d overflow was undefined; both are plain skips now.
  EXPECT_TRUE(parse_cpu_list("0-2147483647").empty());
  EXPECT_TRUE(parse_cpu_list("2147483648").empty());
  EXPECT_TRUE(parse_cpu_list("99999999999999999999999").empty());
  // Only unsigned decimal ids: no sign, no blank inside a segment.
  EXPECT_EQ(parse_cpu_list("+3,0- 2,4"), (std::vector<int>{4}));
}

TEST(CpuTopologyTest, ParseCpuListSurvivesHostileBytes) {
  const std::vector<std::string> corpus = {
      "0-3",          "0-3,8,10-11\n",           " 2 , 4 ",
      "0-2147483647", "1048575,7",               "18446744073709551615",
      "0-63,128-191", "3,1,1-2,\t5-5 ,,-1,9-8"};
  std::mt19937_64 rng(20070625);
  for (const std::string& seed_text : corpus) {
    for (int m = 0; m < 400; ++m) {
      std::string bytes = seed_text;
      for (int k = 0; k <= m % 3; ++k) test::mutate_bytes(bytes, rng);
      SCOPED_TRACE("input \"" + bytes + "\"");
      const std::vector<int> cpus = parse_cpu_list(bytes);
      EXPECT_TRUE(std::is_sorted(cpus.begin(), cpus.end()));
      EXPECT_EQ(std::adjacent_find(cpus.begin(), cpus.end()), cpus.end());
      if (!cpus.empty()) {
        EXPECT_GE(cpus.front(), 0);
        EXPECT_LT(cpus.back(), kCpuIdLimit);
      }
    }
  }
}

TEST(CpuTopologyTest, DetectedTopologyHasAtLeastOneNodeWithCpus) {
  const CpuTopology& topo = detected_topology();
  ASSERT_GE(topo.node_count(), 1u);
  for (const NumaNode& node : topo.nodes) {
    EXPECT_GE(node.id, 0);
    EXPECT_FALSE(node.cpus.empty());
  }
}

TEST(CpuTopologyTest, ForcedNodesSplitIsSyntheticAndCoversAllCpus) {
  std::size_t detected_cpus = 0;
  for (const auto& node : detected_topology().nodes) {
    detected_cpus += node.cpus.size();
  }
  ScopedForceNodes force("3");
  const CpuTopology topo = active_topology();
  ASSERT_EQ(topo.node_count(), 3u);
  // Synthetic splits shape claim routing only; pinning threads to
  // made-up nodes would fight the OS scheduler (thread_pool.cpp).
  EXPECT_FALSE(topo.physical);
  std::size_t split_cpus = 0;
  for (const auto& node : topo.nodes) split_cpus += node.cpus.size();
  EXPECT_EQ(split_cpus, detected_cpus);
}

TEST(CpuTopologyTest, ActiveTopologyFollowsTheEnvironment) {
  const std::size_t detected_nodes = detected_topology().node_count();
  EXPECT_EQ(active_topology().node_count(), detected_nodes);
  {
    ScopedForceNodes force("5");
    EXPECT_EQ(active_topology().node_count(), 5u);
  }
  EXPECT_EQ(active_topology().node_count(), detected_nodes);
}

TEST(CpuTopologyTest, MalformedForcedNodesThrow) {
  for (const char* bad : {"0", "-2", "abc", "2.5", "3x", ""}) {
    SCOPED_TRACE(bad);
    ScopedForceNodes force(bad);
    if (*bad == '\0') {
      // Empty counts as absent, like the other RAIDREL_* overrides.
      EXPECT_EQ(active_topology().node_count(),
                detected_topology().node_count());
    } else {
      EXPECT_THROW(active_topology(), ModelError);
    }
  }
}

TEST(CpuTopologyTest, ForcedNodeCountParsesStrictly) {
  EXPECT_EQ(parse_forced_node_count("1"), 1u);
  EXPECT_EQ(parse_forced_node_count("3"), 3u);
  EXPECT_EQ(parse_forced_node_count("1024"), kForcedNodeLimit);
  // strtol took a sign and leading blanks, and saturated an overflowing
  // value to LONG_MAX, which active_topology() then tried to build.
  for (const char* bad : {"", "0", "1025", "+3", " 3", "3 ", "-1", "0x4",
                          "18446744073709551616", "99999999999999999999"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(parse_forced_node_count(bad), ModelError);
  }
}

TEST(CpuTopologyTest, ForcedNodeCountSurvivesHostileBytes) {
  // Every input parses to a count whose decimal form is the input itself,
  // or throws ModelError. Only the pure parser runs: no topology is built.
  const std::vector<std::string> corpus = {"1",   "2",    "16",   "1024",
                                           "1025", "007", "+3",   " 3",
                                           "18446744073709551615"};
  std::mt19937_64 rng(20070625);
  for (const std::string& seed_text : corpus) {
    for (int m = 0; m < 400; ++m) {
      std::string bytes = seed_text;
      for (int k = 0; k <= m % 3; ++k) test::mutate_bytes(bytes, rng);
      SCOPED_TRACE("input \"" + bytes + "\"");
      try {
        const std::size_t n = parse_forced_node_count(bytes);
        EXPECT_GE(n, 1u);
        EXPECT_LE(n, kForcedNodeLimit);
        // Leading zeros are the one spelling that parses but does not
        // re-serialize: strip them before comparing.
        const std::size_t first = bytes.find_first_not_of('0');
        ASSERT_NE(first, std::string::npos);
        EXPECT_EQ(std::to_string(n), bytes.substr(first));
      } catch (const ModelError&) {
      }
    }
  }
}

TEST(CpuTopologyTest, PoolWorkersGetHomeNodesUnderForcedSplit) {
  // A fresh pool spawned under a forced split assigns round-robin home
  // nodes (visible through current_worker_node) without pinning; the
  // coordinating thread itself is never assigned one.
  ScopedForceNodes force("2");
  sim::ThreadPool pool;
  std::mutex mu;
  std::vector<int> seen;
  pool.run(4, [&] {
    const std::lock_guard<std::mutex> lock(mu);
    seen.push_back(sim::ThreadPool::current_worker_node());
  });
  ASSERT_EQ(seen.size(), 4u);
  for (const int node : seen) {
    EXPECT_GE(node, 0);
    EXPECT_LT(node, 2);
  }
  EXPECT_EQ(sim::ThreadPool::current_worker_node(), -1);
}

TEST(CpuFeatures, MathTierNamesRoundTrip) {
  using sim::MathTier;
  EXPECT_EQ(sim::parse_math_tier(sim::math_tier_name(MathTier::kExact)),
            MathTier::kExact);
  EXPECT_EQ(sim::parse_math_tier(sim::math_tier_name(MathTier::kFast)),
            MathTier::kFast);
  EXPECT_FALSE(sim::parse_math_tier("FAST").has_value());
  EXPECT_FALSE(sim::parse_math_tier("").has_value());
}

}  // namespace
}  // namespace raidrel::util
