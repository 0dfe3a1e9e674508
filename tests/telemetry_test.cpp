// Tests for the observability layer (src/obs/): JSON writer, config
// digests, run telemetry, and the bounded event trace — including the
// contract the manifest rests on: telemetry totals reproduce the
// RunResult counters exactly, and attaching sinks never changes results.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "obs/json_writer.h"
#include "obs/run_telemetry.h"
#include "obs/trace.h"
#include "sim/convergence.h"
#include "sim/fleet_simulator.h"
#include "sim/group_simulator.h"
#include "sim/lane_ops.h"
#include "sim/runner.h"
#include "stats/basic_distributions.h"
#include "stats/weibull.h"
#include "util/error.h"

namespace raidrel {
namespace {

// An eventful group: failures, latent defects, scrubs, and a pool small
// enough that drives regularly wait for spares.
// Latent-credited as written (exponential TTLd); latent_beta != 1 keeps it
// on the event path.
raid::GroupConfig busy_pool_group(double latent_beta = 1.0) {
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 4000.0, 1.2);
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 100.0, 2.0);
  m.time_to_latent_defect =
      std::make_unique<stats::Weibull>(0.0, 2000.0, latent_beta);
  m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, 300.0, 3.0);
  auto cfg = raid::make_uniform_group(8, 1, m, 20000.0);
  cfg.spare_pool = raid::SparePoolConfig{1, 200.0};
  return cfg;
}

TEST(JsonWriter, CompactDocument) {
  std::ostringstream os;
  obs::JsonWriter w(os, /*indent=*/0);
  w.begin_object();
  w.kv("a", std::uint64_t{1});
  w.key("b");
  w.begin_array();
  w.value(1.5);
  w.value("x");
  w.value(true);
  w.null();
  w.end_array();
  w.end_object();
  EXPECT_EQ(os.str(), R"({"a":1,"b":[1.5,"x",true,null]})");
}

TEST(JsonWriter, EscapesControlCharacters) {
  EXPECT_EQ(obs::JsonWriter::escape("a\"b\\c\n\t\x01"),
            "a\\\"b\\\\c\\n\\t\\u0001");
}

TEST(JsonWriter, NonFiniteDoublesBecomeStrings) {
  std::ostringstream os;
  obs::JsonWriter w(os, 0);
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(-std::numeric_limits<double>::infinity());
  w.value(std::nan(""));
  w.end_array();
  EXPECT_EQ(os.str(), R"(["inf","-inf","nan"])");
}

TEST(JsonWriter, StructuralMisuseThrows) {
  std::ostringstream os;
  obs::JsonWriter w(os, 0);
  w.begin_object();
  EXPECT_THROW(w.value(1.0), ModelError);   // object member without a key
  EXPECT_THROW(w.end_array(), ModelError);  // mismatched scope
}

TEST(Fnv1a64, KnownVectorsAndChaining) {
  EXPECT_EQ(obs::fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(obs::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  // Seeding with a prefix hash hashes the concatenation.
  EXPECT_EQ(obs::fnv1a64("bc", obs::fnv1a64("a")), obs::fnv1a64("abc"));
}

TEST(ConfigDigest, StableAndSensitive) {
  const auto cfg = busy_pool_group();
  const std::uint64_t base = sim::config_digest(cfg);
  EXPECT_EQ(base, sim::config_digest(cfg.clone()));

  auto longer = cfg.clone();
  longer.mission_hours *= 2.0;
  EXPECT_NE(base, sim::config_digest(longer));

  auto reshaped = cfg.clone();
  reshaped.slots[3].time_to_op_failure =
      std::make_unique<stats::Weibull>(0.0, 4000.0, 1.3);
  EXPECT_NE(base, sim::config_digest(reshaped));

  auto no_pool = cfg.clone();
  no_pool.spare_pool.reset();
  EXPECT_NE(base, sim::config_digest(no_pool));

  // Scrub laws that differ past describe()'s 6 significant digits.
  auto scrub168 = cfg.clone();
  auto nudged = cfg.clone();
  scrub168.slots[0].time_to_scrub =
      std::make_unique<stats::Weibull>(6.0, 168.0, 3.0);
  nudged.slots[0].time_to_scrub =
      std::make_unique<stats::Weibull>(6.0, std::nextafter(168.0, 200.0), 3.0);
  ASSERT_EQ(scrub168.slots[0].time_to_scrub->describe(),
            nudged.slots[0].time_to_scrub->describe());
  EXPECT_NE(sim::config_digest(scrub168), sim::config_digest(nudged));
}

TEST(RunTelemetry, TotalsMatchRunResultCounters) {
  for (const double latent_beta : {1.0, 1.2}) {
    SCOPED_TRACE(latent_beta);
    const bool credited = latent_beta == 1.0;
    const auto cfg = busy_pool_group(latent_beta);
    obs::RunTelemetry telemetry;
    sim::RunOptions run;
    run.trials = 2000;
    run.seed = 11;
    run.threads = 4;
    run.telemetry = &telemetry;
    const auto result = sim::run_monte_carlo(cfg, run);

    const obs::WorkerStats totals = telemetry.totals();
    EXPECT_EQ(totals.trials, result.trials());
    EXPECT_EQ(totals.op_failures, result.op_failures());
    EXPECT_EQ(totals.latent_defects, result.latent_defects());
    EXPECT_EQ(totals.scrubs_completed, result.scrubs_completed());
    EXPECT_EQ(totals.restores_completed, result.restores_completed());
    EXPECT_EQ(totals.spare_arrivals, result.spare_arrivals());
    EXPECT_GT(totals.spare_arrivals, 0u);  // the pool really was exercised
    EXPECT_EQ(telemetry.estimator(), credited ? "latent-credit" : "events");
    if (credited) {
      // The sink counts the realized sample path; the estimate is credited.
      EXPECT_TRUE(telemetry.estimator_reason().empty());
      EXPECT_EQ(totals.latent_defects, 0u);
    } else {
      EXPECT_EQ(telemetry.estimator_reason(),
                "latent-defect law is not exponential");
      // Counted DDFs agree with the bucketed counting series (integer-valued
      // doubles, so the comparison is exact).
      EXPECT_DOUBLE_EQ(static_cast<double>(totals.ddfs) * 1000.0 /
                           static_cast<double>(result.trials()),
                       result.total_ddfs_per_1000());
    }

    EXPECT_EQ(telemetry.master_seed(), 11u);
    EXPECT_EQ(telemetry.config_digest(), sim::config_digest(cfg));
    EXPECT_EQ(telemetry.threads(), 4u);
    ASSERT_EQ(telemetry.batches().size(), 1u);
    EXPECT_EQ(telemetry.batches()[0].trials, 2000u);
    EXPECT_LE(telemetry.workers().size(), 4u);
    std::uint64_t worker_trials = 0;
    for (const auto& ws : telemetry.workers()) worker_trials += ws.trials;
    EXPECT_EQ(worker_trials, 2000u);
  }
}

TEST(RunTelemetry, SinksDoNotPerturbResults) {
  for (const double latent_beta : {1.0, 1.2}) {
    SCOPED_TRACE(latent_beta);
    const auto cfg = busy_pool_group(latent_beta);
    sim::RunOptions plain;
    plain.trials = 500;
    plain.seed = 12;
    plain.threads = 2;
    const auto expected = sim::run_monte_carlo(cfg, plain);

    obs::RunTelemetry telemetry;
    sim::RunOptions observed = plain;
    observed.telemetry = &telemetry;
    const auto got = sim::run_monte_carlo(cfg, observed);

    EXPECT_EQ(got.op_failures(), expected.op_failures());
    EXPECT_EQ(got.latent_defects(), expected.latent_defects());
    EXPECT_EQ(got.spare_arrivals(), expected.spare_arrivals());
    EXPECT_DOUBLE_EQ(got.total_ddfs_per_1000(),
                     expected.total_ddfs_per_1000());
  }
}

TEST(RunTelemetry, FleetTotalsMatchRunResultCounters) {
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 4000.0, 1.2);
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 100.0, 2.0);
  sim::FleetConfig fleet;
  fleet.groups.push_back(raid::make_uniform_group(4, 1, m, 20000.0));
  fleet.groups.push_back(raid::make_uniform_group(6, 1, m, 20000.0));
  fleet.shared_pool = raid::SparePoolConfig{1, 200.0};

  obs::RunTelemetry telemetry;
  sim::RunOptions run;
  run.trials = 300;
  run.seed = 13;
  run.threads = 3;
  run.telemetry = &telemetry;
  const auto result = sim::run_fleet_monte_carlo(fleet, run);

  const obs::WorkerStats totals = telemetry.totals();
  EXPECT_EQ(totals.trials, result.trials());  // group-missions: 300 * 2
  EXPECT_EQ(totals.trials, 600u);
  EXPECT_EQ(totals.op_failures, result.op_failures());
  EXPECT_EQ(totals.restores_completed, result.restores_completed());
  EXPECT_EQ(totals.spare_arrivals, result.spare_arrivals());
  EXPECT_GT(totals.spare_arrivals, 0u);
  EXPECT_EQ(telemetry.config_digest(), sim::config_digest(fleet));
}

TEST(RunTelemetry, FleetManifestNamesTheGroupLeftOnEvents) {
  // Groups 0 and 1 are credited; group 2 (redundancy 2) simulates its
  // latent defects, which are then the only ones the counters hold.
  sim::FleetConfig fleet;
  for (int g = 0; g < 3; ++g) {
    auto group = busy_pool_group();
    group.spare_pool.reset();
    if (g == 2) group.redundancy = 2;
    fleet.groups.push_back(std::move(group));
  }
  auto run_fleet = [](const sim::FleetConfig& f, obs::RunTelemetry& t) {
    sim::RunOptions run;
    run.trials = 40;
    run.seed = 15;
    run.threads = 2;
    run.telemetry = &t;
    return sim::run_fleet_monte_carlo(f, run);
  };

  obs::RunTelemetry mixed;
  const auto result = run_fleet(fleet, mixed);
  EXPECT_EQ(mixed.estimator(), "latent-credit");
  EXPECT_EQ(mixed.estimator_reason(), "group 2: redundancy above 1");
  EXPECT_GT(result.latent_defects(), 0u);
  EXPECT_NE(mixed.json().find(
                "\"estimator_reason\": \"group 2: redundancy above 1\""),
            std::string::npos);

  fleet.groups.pop_back();
  obs::RunTelemetry credited;
  run_fleet(fleet, credited);
  EXPECT_EQ(credited.estimator(), "latent-credit");
  EXPECT_TRUE(credited.estimator_reason().empty());
  EXPECT_EQ(credited.json().find("estimator_reason"), std::string::npos);

  for (auto& group : fleet.groups) group.redundancy = 2;
  obs::RunTelemetry events;
  run_fleet(fleet, events);
  EXPECT_EQ(events.estimator(), "events");
  EXPECT_EQ(events.estimator_reason(), "group 0: redundancy above 1");
}

TEST(RunTelemetry, ManifestJsonCarriesSchemaAndIdentity) {
  obs::RunTelemetry telemetry;
  sim::RunOptions run;
  run.trials = 200;
  run.seed = 14;
  run.threads = 1;
  run.telemetry = &telemetry;
  sim::run_monte_carlo(busy_pool_group(), run);

  const std::string json = telemetry.json();
  EXPECT_NE(json.find("\"schema\": \"raidrel-run-manifest/1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"master_seed\": 14"), std::string::npos);
  EXPECT_NE(json.find("\"config_digest\": \"0x"), std::string::npos);
  EXPECT_NE(json.find("\"totals\""), std::string::npos);
  EXPECT_NE(json.find("\"batches\""), std::string::npos);
  EXPECT_NE(json.find("\"workers\""), std::string::npos);
  // The lockstep lane width is part of the run's execution record; the
  // default options run at kDefaultBatchWidth.
  EXPECT_NE(json.find("\"batch_width\": " +
                      std::to_string(sim::kDefaultBatchWidth)),
            std::string::npos);
  // Batched runs also record which SIMD backend executed them and, at
  // the default tier, "exact" — the manifest must attribute results to
  // the code path that produced them (docs/MODEL.md §14).
  EXPECT_NE(json.find("\"isa\": \"" +
                      std::string(util::isa_name(sim::lane_ops().isa)) +
                      "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"math_tier\": \"exact\""), std::string::npos);
}

TEST(RunTelemetry, ManifestRecordsFastTierAndScalarRunsStayBare) {
  {
    obs::RunTelemetry telemetry;
    sim::RunOptions run;
    run.trials = 64;
    run.seed = 14;
    run.threads = 1;
    run.math_tier = sim::MathTier::kFast;
    run.telemetry = &telemetry;
    sim::run_monte_carlo(busy_pool_group(), run);
    EXPECT_NE(telemetry.json().find("\"math_tier\": \"fast\""),
              std::string::npos);
  }
  {
    // batch_width 1 runs the scalar engine: no lane backend, no tier —
    // the keys are additive and must not appear at all (a scalar
    // manifest stays byte-compatible with pre-SIMD consumers).
    obs::RunTelemetry telemetry;
    sim::RunOptions run;
    run.trials = 64;
    run.seed = 14;
    run.threads = 1;
    run.batch_width = 1;
    run.telemetry = &telemetry;
    sim::run_monte_carlo(busy_pool_group(), run);
    EXPECT_EQ(telemetry.json().find("\"isa\""), std::string::npos);
    EXPECT_EQ(telemetry.json().find("\"math_tier\""), std::string::npos);
  }
}

TEST(RunTelemetry, MixingConfigsInOneSinkThrows) {
  obs::RunTelemetry telemetry;
  telemetry.configure(1, 100, 2);
  telemetry.configure(1, 100, 4);  // same run, new thread count: fine
  EXPECT_THROW(telemetry.configure(1, 101, 2), ModelError);
  EXPECT_THROW(telemetry.configure(2, 100, 2), ModelError);
}

TEST(RunTelemetry, ConvergenceRecordsTrajectory) {
  obs::RunTelemetry telemetry;
  sim::ConvergenceOptions opt;
  opt.target_relative_sem = 0.10;
  opt.batch_trials = 200;
  opt.min_trials = 200;
  opt.max_trials = 50000;
  opt.seed = 15;
  opt.telemetry = &telemetry;
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 4000.0, 1.2);
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 100.0, 2.0);
  const auto run = sim::run_until_converged(
      raid::make_uniform_group(8, 1, m, 20000.0), opt);

  ASSERT_EQ(telemetry.batches().size(), run.batches);
  EXPECT_EQ(telemetry.totals().trials, run.result.trials());
  std::uint64_t expected_index = 0;
  for (const auto& b : telemetry.batches()) {
    EXPECT_EQ(b.first_trial_index, expected_index);
    expected_index += b.trials;
    EXPECT_GE(b.relative_sem, 0.0);  // annotated every round
    EXPECT_GE(b.absolute_sem, 0.0);
  }
  EXPECT_DOUBLE_EQ(telemetry.batches().back().absolute_sem,
                   run.absolute_sem);
}

TEST(EventTrace, GroupAndSingleGroupFleetTracesAgree) {
  // A fleet of one group (no shared pool) is documented to reproduce
  // GroupSimulator draw for draw; traces pin that down to the full event
  // sequence, including intra-instant ordering.
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 3000.0, 1.1);
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 100.0, 2.0);
  m.time_to_latent_defect =
      std::make_unique<stats::Weibull>(0.0, 2000.0, 1.0);
  m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, 300.0, 3.0);
  const auto cfg = raid::make_uniform_group(6, 1, m, 20000.0);

  rng::StreamFactory streams(17);
  sim::GroupSimulator group(cfg);
  sim::TrialResult group_out;
  obs::TrialTrace group_trace;
  auto rs1 = streams.stream(0);
  group.run_trial(rs1, group_out, &group_trace);

  sim::FleetConfig fleet;
  fleet.groups.push_back(cfg.clone());
  sim::FleetSimulator fleet_sim(fleet);
  sim::FleetTrialResult fleet_out;
  obs::TrialTrace fleet_trace;
  auto rs2 = streams.stream(0);
  fleet_sim.run_trial(rs2, fleet_out, &fleet_trace);

  ASSERT_EQ(group_trace.events().size(), fleet_trace.events().size());
  for (std::size_t i = 0; i < group_trace.events().size(); ++i) {
    EXPECT_TRUE(group_trace.events()[i] == fleet_trace.events()[i])
        << "event " << i;
  }

  // Event counts in the trace agree with the trial's counters, and
  // dispatch times never go backwards.
  std::size_t op = 0, ddf = 0;
  double last = 0.0;
  for (const auto& e : group_trace.events()) {
    EXPECT_GE(e.time, last);
    last = e.time;
    if (e.kind == obs::TraceEventKind::kOpFailure) ++op;
    if (e.kind == obs::TraceEventKind::kDdf) ++ddf;
  }
  EXPECT_GT(op, 0u);
  EXPECT_EQ(op, group_out.op_failures);
  EXPECT_EQ(ddf, group_out.ddfs.size());
}

TEST(EventTrace, BoundedBufferDropsExcessEvents) {
  obs::TrialTrace t(/*max_events=*/2);
  t.record(1.0, obs::TraceEventKind::kOpFailure, 0);
  t.record(2.0, obs::TraceEventKind::kRestoreDone, 0);
  t.record(3.0, obs::TraceEventKind::kOpFailure, 1);
  EXPECT_EQ(t.events().size(), 2u);
  EXPECT_EQ(t.dropped(), 1u);
  t.clear();
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(t.dropped(), 0u);
}

}  // namespace
}  // namespace raidrel
