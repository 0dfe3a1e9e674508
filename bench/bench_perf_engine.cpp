// Performance microbenchmarks (google-benchmark): distribution sampling
// and full group-mission simulation throughput. These bound how many
// Monte Carlo trials a study can afford — the practical limit the paper's
// method trades against MTTDL's closed form.
//
// Besides the console table the binary emits a machine-readable artifact
// (BENCH_perf.json by default; --perf-json=<path> overrides,
// --no-perf-json disables) recording each benchmark's throughput together
// with the simulated model's config digest and worker thread count, so CI
// can archive trials/sec next to the commit that produced it.
#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analytic/latent_curve.h"
#include "bench_support.h"
#include "core/presets.h"
#include "obs/run_telemetry.h"
#include "raid/group_config.h"
#include "sim/batch_engine.h"
#include "sim/fleet_simulator.h"
#include "sim/group_simulator.h"
#include "sim/lane_ops.h"
#include "sim/latent_credit.h"
#include "sim/runner.h"
#include "sim/slot_kernel.h"
#include "sim/thread_pool.h"
#include "sim/timing_engine.h"
#include "stats/weibull.h"

namespace {

using namespace raidrel;

// Engine benchmarks register which model they run, at how many worker
// threads, and (for the lockstep engine) at which lane width and math
// tier; the perf artifact joins this with the measured throughput. The
// resolved SIMD backend is stamped on every benchmark that runs the
// batched engine, so archived numbers are attributable to the lane code
// path that produced them. `items_per_iteration` is how many trials one
// benchmark iteration performs — the artifact's real_time_ns is
// normalized by it (schema v3), so a 64-trial lane iteration reports a
// per-trial time comparable with the scalar engine's.
struct EngineMeta {
  std::uint64_t config_digest = 0;
  unsigned threads = 0;
  std::size_t batch_width = 0;
  std::size_t items_per_iteration = 1;
  std::string isa;
  std::string math_tier;
  std::string estimator;
};

std::map<std::string, EngineMeta>& perf_meta() {
  static std::map<std::string, EngineMeta> meta;
  return meta;
}

// The estimator a group mission of `cfg` runs on (sim/latent_credit.h):
// latent-credited and event-path throughputs are never compared.
const char* estimator_of(const raid::GroupConfig& cfg) {
  return sim::latent_credit_exclusion(cfg) ? sim::kEventsEstimator
                                           : sim::kLatentCreditEstimator;
}

void note_engine_config(const std::string& bench_name,
                        const raid::GroupConfig& cfg, unsigned threads,
                        std::size_t batch_width = 0,
                        std::size_t items_per_iteration = 1,
                        sim::MathTier tier = sim::MathTier::kExact,
                        const char* estimator = nullptr) {
  EngineMeta meta;
  meta.config_digest = sim::config_digest(cfg);
  meta.estimator = estimator ? estimator : estimator_of(cfg);
  meta.threads = threads;
  meta.batch_width = batch_width;
  meta.items_per_iteration = items_per_iteration;
  if (batch_width > 1) {
    meta.isa = util::isa_name(sim::lane_ops().isa);
    meta.math_tier = sim::math_tier_name(tier);
  }
  perf_meta()[bench_name] = std::move(meta);
}

unsigned resolved_threads(unsigned requested) {
  return requested != 0 ? requested
                        : std::max(1u, std::thread::hardware_concurrency());
}

void BM_WeibullSample(benchmark::State& state) {
  const stats::Weibull w(6.0, 12.0, 2.0);
  rng::RandomStream rs(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.sample(rs));
  }
}
BENCHMARK(BM_WeibullSample);

void BM_WeibullResidualSample(benchmark::State& state) {
  const stats::Weibull w(0.0, 461386.0, 1.12);
  rng::RandomStream rs(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.sample_residual(50000.0, rs));
  }
}
BENCHMARK(BM_WeibullResidualSample);

// One draw of the base-case TTOp law as the scalar core makes it: /0 the
// full sample(), /1 sample_censored() at the 10-year mission, where 86% of
// draws outlive the mission and skip the log and pow (docs/MODEL.md §9).
// A kernel-level number only; the perf gate does not watch it.
void BM_BaseCaseOpDraw(benchmark::State& state) {
  const raid::GroupConfig cfg = core::presets::base_case().to_group_config();
  const sim::CompiledLaw op =
      sim::CompiledLaw::compile(cfg.slots.front().time_to_op_failure.get());
  const std::uint64_t censor =
      state.range(0) == 0 ? 0 : op.censor_index(cfg.mission_hours);
  rng::RandomStream rs(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(state.range(0) == 0
                                 ? op.sample(rs)
                                 : op.sample_censored(censor, rs));
  }
}
BENCHMARK(BM_BaseCaseOpDraw)->Arg(0)->Arg(1);

// The latent-credit tables (analytic/latent_curve.h), one per run_monte_carlo
// call and distinct (latent rate, scrub law): the build at the four
// corners of the sweep_grid latent-rate x scrub grid (Table 1's lowest and
// highest rates, scrub 12 h and 720 h). Budget: 2 ms per table.
void BM_LatentCurve(benchmark::State& state) {
  const double rate = state.range(0) == 0 ? 1.08e-5 : 4.32e-3;
  const stats::Weibull scrub(6.0, static_cast<double>(state.range(1)), 3.0);
  std::size_t nodes = 0;
  for (auto _ : state) {
    const analytic::LatentCurve curve(rate, &scrub, 87600.0);
    nodes = curve.nodes();
    benchmark::DoNotOptimize(curve(1000.0));
  }
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_LatentCurve)
    ->ArgsProduct({{0, 1}, {12, 720}})
    ->Unit(benchmark::kMillisecond);

// The mission benchmarks run the engine exactly as the runner drives it:
// the lockstep lane engine at the default width. One iteration = one lane
// of kDefaultBatchWidth trials, so items/s (trials per second) is the
// number to compare across commits — it is lane-width-independent, unlike
// the per-iteration wall time. BM_GroupMission_BaseCase_Scalar keeps the
// one-trial-at-a-time engine measured alongside. The base case is
// latent-credited (its lanes are forwarded to the scalar core, docs/MODEL.md
// §19); BM_GroupMission_WeibullLatent keeps the lockstep event engine
// measured on the same group with beta_ld = 1.2.
void run_lanes(benchmark::State& state, sim::BatchGroupSimulator& simulator,
               std::uint64_t seed) {
  rng::StreamFactory streams(seed);
  std::uint64_t trial = 0;
  for (auto _ : state) {
    simulator.run_lane(streams, trial, sim::kDefaultBatchWidth);
    trial += sim::kDefaultBatchWidth;
    benchmark::DoNotOptimize(simulator.result(0).op_failures);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(sim::kDefaultBatchWidth));
}

void BM_GroupMission_BaseCase(benchmark::State& state) {
  const auto cfg = core::presets::base_case().to_group_config();
  note_engine_config("BM_GroupMission_BaseCase", cfg, 1,
                     sim::kDefaultBatchWidth, sim::kDefaultBatchWidth);
  sim::BatchGroupSimulator simulator(cfg, sim::kDefaultBatchWidth);
  run_lanes(state, simulator, 3);
}
BENCHMARK(BM_GroupMission_BaseCase);

raid::GroupConfig weibull_latent_case() {
  core::ScenarioConfig s = core::presets::base_case();
  s.ttld->beta = 1.2;
  return s.to_group_config();
}

void BM_GroupMission_WeibullLatent(benchmark::State& state) {
  const auto cfg = weibull_latent_case();
  note_engine_config("BM_GroupMission_WeibullLatent", cfg, 1,
                     sim::kDefaultBatchWidth, sim::kDefaultBatchWidth);
  sim::BatchGroupSimulator simulator(cfg, sim::kDefaultBatchWidth);
  run_lanes(state, simulator, 3);
}
BENCHMARK(BM_GroupMission_WeibullLatent);

// The event lane at the fast math tier (sim/lane_ops.h): the polynomial
// log/exp kernels replace libm in the hot Weibull refills. The delta
// against BM_GroupMission_WeibullLatent is the price of bit-exactness.
void BM_GroupMission_WeibullLatent_FastMath(benchmark::State& state) {
  const auto cfg = weibull_latent_case();
  note_engine_config("BM_GroupMission_WeibullLatent_FastMath", cfg, 1,
                     sim::kDefaultBatchWidth, sim::kDefaultBatchWidth,
                     sim::MathTier::kFast);
  sim::BatchGroupSimulator simulator(cfg, sim::kDefaultBatchWidth,
                                     sim::KernelPolicy::kLowered,
                                     std::nullopt, sim::MathTier::kFast);
  run_lanes(state, simulator, 3);
}
BENCHMARK(BM_GroupMission_WeibullLatent_FastMath);

// Long-tail mission: a short window over the base-case laws, so most
// trials see only their install burst and settle, while the unlucky few
// ride defect/scrub chains for many more rounds. The lane spends most
// wall rounds mostly empty — the settled-lane compaction regime. The
// fused round loop's sweep cost tracks the number of LIVE lanes, so its
// per-trial gain here exceeds the full-lane base case (super-linear
// relative to mean occupancy). Watched by the perf gate;
// active_lane_ratio is reported so the regime is visible per commit.
// The TTLd shape is 1.2, not 1: an exponential TTLd at redundancy 1 would
// be latent-credited (docs/MODEL.md §19), simulating no defect or scrub
// chains at all.
void BM_GroupMission_LongTail(benchmark::State& state) {
  raid::SlotModel m;
  m.time_to_op_failure =
      std::make_unique<stats::Weibull>(0.0, 461386.0, 1.12);
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 12.0, 2.0);
  m.time_to_latent_defect =
      std::make_unique<stats::Weibull>(0.0, 9259.0, 1.2);
  m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, 168.0, 3.0);
  const auto cfg = raid::make_uniform_group(8, 1, m, 2000.0);
  note_engine_config("BM_GroupMission_LongTail", cfg, 1,
                     sim::kDefaultBatchWidth, sim::kDefaultBatchWidth);
  sim::BatchGroupSimulator simulator(cfg, sim::kDefaultBatchWidth);
  rng::StreamFactory streams(7);
  std::uint64_t trial = 0;
  for (auto _ : state) {
    simulator.run_lane(streams, trial, sim::kDefaultBatchWidth);
    trial += sim::kDefaultBatchWidth;
    benchmark::DoNotOptimize(simulator.result(0).op_failures);
  }
  const auto& oc = simulator.occupancy();
  if (oc.capacity_lane_rounds > 0) {
    state.counters["active_lane_ratio"] = benchmark::Counter(
        static_cast<double>(oc.active_lane_rounds) /
        static_cast<double>(oc.capacity_lane_rounds));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(sim::kDefaultBatchWidth));
}
BENCHMARK(BM_GroupMission_LongTail);

void BM_GroupMission_BaseCase_Scalar(benchmark::State& state) {
  const auto cfg = core::presets::base_case().to_group_config();
  note_engine_config("BM_GroupMission_BaseCase_Scalar",
                     cfg, 1);
  sim::GroupSimulator simulator(cfg);
  rng::StreamFactory streams(3);
  sim::TrialResult out;
  std::uint64_t trial = 0;
  for (auto _ : state) {
    auto rs = streams.stream(trial++);
    simulator.run_trial(rs, out);
    benchmark::DoNotOptimize(out.op_failures);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GroupMission_BaseCase_Scalar);

void BM_GroupMission_NoLatent(benchmark::State& state) {
  const auto cfg = core::presets::no_latent_defects().to_group_config();
  note_engine_config("BM_GroupMission_NoLatent", cfg, 1,
                     sim::kDefaultBatchWidth, sim::kDefaultBatchWidth);
  sim::BatchGroupSimulator simulator(cfg, sim::kDefaultBatchWidth);
  rng::StreamFactory streams(4);
  std::uint64_t trial = 0;
  for (auto _ : state) {
    simulator.run_lane(streams, trial, sim::kDefaultBatchWidth);
    trial += sim::kDefaultBatchWidth;
    benchmark::DoNotOptimize(simulator.result(0).op_failures);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(sim::kDefaultBatchWidth));
}
BENCHMARK(BM_GroupMission_NoLatent);

// The opt-in double-op probe (RunOptions::double_op_probe, docs/MODEL.md
// §4) on the Fig. 6 c-c preset, the mission bench_fig06 runs: every op
// failure adds each partner's window probability and the Poisson-binomial
// census. Kept measured so the opt-in path's cost stays visible; not in
// the perf gate's watched set.
void BM_GroupMission_Fig6Probe(benchmark::State& state) {
  const auto cfg =
      core::presets::fig6_variant(core::presets::Fig6Variant::kConstConst)
          .to_group_config();
  note_engine_config("BM_GroupMission_Fig6Probe", cfg, 1,
                     sim::kDefaultBatchWidth, sim::kDefaultBatchWidth);
  sim::BatchGroupSimulator simulator(
      cfg, sim::kDefaultBatchWidth, sim::KernelPolicy::kLowered,
      std::nullopt, sim::MathTier::kExact, nullptr, /*double_op_probe=*/true);
  run_lanes(state, simulator, 6);
}
BENCHMARK(BM_GroupMission_Fig6Probe);

void BM_TimingEngineMission_BaseCase(benchmark::State& state) {
  auto cfg = core::presets::base_case().to_group_config();
  cfg.clear_defects_on_ddf_restore = false;
  // The paper-procedure engine always simulates every event.
  note_engine_config("BM_TimingEngineMission_BaseCase", cfg, 1, 0, 1,
                     sim::MathTier::kExact, sim::kEventsEstimator);
  sim::TimingDiagramEngine engine(cfg);
  rng::StreamFactory streams(5);
  sim::TrialResult out;
  std::uint64_t trial = 0;
  for (auto _ : state) {
    auto rs = streams.stream(trial++);
    engine.run_trial(rs, out);
    benchmark::DoNotOptimize(out.op_failures);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TimingEngineMission_BaseCase);

// Fleet missions of G copies of perfbench's fleet_spares group (aging
// 8-drive RAID-5, 2.5-year window) with spares always on hand, so every G
// runs the same events per group-mission and the time per group-mission
// isolates what finding the next event across G groups costs. Reported per
// group-mission; not in the perf gate's watched set.
void BM_FleetMission(benchmark::State& state) {
  const auto groups = static_cast<std::size_t>(state.range(0));
  core::ScenarioConfig s;
  s.mission_hours = 21900.0;
  s.ttop = {0.0, 23000.0, 1.12};
  s.ttr = {6.0, 12.0, 2.0};
  s.ttld = stats::WeibullParams{0.0, 9259.0, 1.0};
  s.ttscrub = stats::WeibullParams{6.0, 168.0, 3.0};
  sim::FleetConfig fleet;
  for (std::size_t g = 0; g < groups; ++g) {
    fleet.groups.push_back(s.to_group_config());
  }
  note_engine_config("BM_FleetMission/" + std::to_string(groups),
                     fleet.groups.front(), 1, 0, groups);
  sim::FleetSimulator simulator(fleet);
  rng::StreamFactory streams(7);
  sim::FleetTrialResult out;
  std::uint64_t trial = 0, events = 0;
  for (auto _ : state) {
    auto rs = streams.stream(trial++);
    simulator.run_trial(rs, out);
    benchmark::DoNotOptimize(out.per_group.front().op_failures);
    for (const auto& g : out.per_group) {
      events += g.op_failures + g.restores_completed + g.latent_defects +
                g.scrubs_completed;
    }
  }
  const auto missions = static_cast<double>(state.iterations()) *
                        static_cast<double>(groups);
  state.counters["events_per_group_mission"] =
      static_cast<double>(events) / missions;
  state.SetItemsProcessed(static_cast<std::int64_t>(missions));
}
BENCHMARK(BM_FleetMission)->Arg(1)->Arg(8)->Arg(50)->Arg(400);

void BM_FullRun_MultiThreaded(benchmark::State& state) {
  const auto cfg = core::presets::base_case().to_group_config();
  note_engine_config("BM_FullRun_MultiThreaded", cfg,
                     resolved_threads(0), sim::kDefaultBatchWidth, 2000);
  // One persistent pool across iterations, exactly how the convergence
  // loop drives batched runs; thread spawn/join is not part of the cost.
  sim::ThreadPool pool;
  for (auto _ : state) {
    sim::RunOptions options{.trials = 2000, .seed = 6, .threads = 0,
                            .bucket_hours = 730.0};
    options.pool = &pool;
    const auto result = sim::run_monte_carlo(cfg, options);
    benchmark::DoNotOptimize(result.total_ddfs_per_1000());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2000);
}
BENCHMARK(BM_FullRun_MultiThreaded)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Thread-scaling curve of the full runner: the same 2000-trial run at 1
// worker, 2 workers, and every hardware thread. Workers claim chunks from
// one shared cursor (sim/runner.cpp), so this curve is where contention
// on it or the pool's dispatch would show; CI logs the three points per
// commit.
void BM_FullRun_ThreadScaling(benchmark::State& state) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  const auto cfg = core::presets::base_case().to_group_config();
  note_engine_config(
      "BM_FullRun_ThreadScaling/" + std::to_string(threads),
      cfg, threads, sim::kDefaultBatchWidth, 2000);
  sim::ThreadPool pool;
  for (auto _ : state) {
    sim::RunOptions options{.trials = 2000, .seed = 6,
                            .threads = threads, .bucket_hours = 730.0};
    options.pool = &pool;
    const auto result = sim::run_monte_carlo(cfg, options);
    benchmark::DoNotOptimize(result.total_ddfs_per_1000());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2000);
}
void thread_scaling_args(benchmark::internal::Benchmark* b) {
  // 1, 2, and all hardware threads — deduplicated so a 1- or 2-CPU
  // machine does not measure the same point twice.
  const long all = static_cast<long>(resolved_threads(0));
  b->Arg(1);
  if (all > 1) b->Arg(2);
  if (all > 2) b->Arg(all);
}
BENCHMARK(BM_FullRun_ThreadScaling)
    ->Apply(thread_scaling_args)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Same run with a telemetry sink attached — the delta against
// BM_FullRun_MultiThreaded is the full observability overhead (per-trial
// counter accumulation plus the once-per-worker merge), which must stay
// in the noise.
void BM_FullRun_Telemetry(benchmark::State& state) {
  const auto cfg = core::presets::base_case().to_group_config();
  note_engine_config("BM_FullRun_Telemetry", cfg,
                     resolved_threads(0), sim::kDefaultBatchWidth, 2000);
  sim::ThreadPool pool;
  for (auto _ : state) {
    obs::RunTelemetry telemetry;
    sim::RunOptions options{.trials = 2000, .seed = 6, .threads = 0,
                            .bucket_hours = 730.0};
    options.telemetry = &telemetry;
    options.pool = &pool;
    const auto result = sim::run_monte_carlo(cfg, options);
    benchmark::DoNotOptimize(result.total_ddfs_per_1000());
    benchmark::DoNotOptimize(telemetry.totals().op_failures);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2000);
}
BENCHMARK(BM_FullRun_Telemetry)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Console output plus a per-benchmark record for the perf artifact.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;  // skip aggregates
      bench::PerfRecord rec;
      // Drop the "/real_time" suffix ->UseRealTime() adds, so records
      // keep the names the committed baseline and the gate use.
      benchmark::BenchmarkName name = run.run_name;
      name.time_type.clear();
      rec.name = name.str();
      rec.iterations = static_cast<std::uint64_t>(run.iterations);
      if (run.iterations > 0) {
        rec.real_time_ns =
            run.real_accumulated_time / static_cast<double>(run.iterations) *
            1e9;
      }
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        rec.trials_per_second = static_cast<double>(it->second);
      }
      const auto meta = perf_meta().find(rec.name);
      if (meta != perf_meta().end()) {
        rec.config_digest = meta->second.config_digest;
        rec.threads = meta->second.threads;
        rec.batch_width = meta->second.batch_width;
        rec.isa = meta->second.isa;
        rec.math_tier = meta->second.math_tier;
        rec.estimator = meta->second.estimator;
        // Schema v3: real_time_ns is per work item. A lane iteration
        // simulates batch-width trials; report the per-trial time so the
        // number is comparable with the scalar engine's.
        if (meta->second.items_per_iteration > 1) {
          rec.real_time_ns /=
              static_cast<double>(meta->second.items_per_iteration);
        }
      }
      records_.push_back(std::move(rec));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  [[nodiscard]] const std::vector<bench::PerfRecord>& records() const {
    return records_;
  }

 private:
  std::vector<bench::PerfRecord> records_;
};

}  // namespace

int main(int argc, char** argv) {
  // Peel off our flags before google-benchmark sees (and rejects) them.
  std::string perf_json_path = "BENCH_perf.json";
  std::vector<char*> passthrough;
  passthrough.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--perf-json=", 12) == 0) {
      perf_json_path = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--no-perf-json") == 0) {
      perf_json_path.clear();
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             passthrough.data())) {
    return 1;
  }

  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  if (!perf_json_path.empty() && !reporter.records().empty()) {
    std::ofstream out(perf_json_path);
    if (!out) {
      std::cerr << "cannot write perf artifact: " << perf_json_path << "\n";
      return 1;
    }
    raidrel::bench::write_perf_json(out, reporter.records());
    std::cout << "perf artifact: " << perf_json_path << "\n";
  }
  return 0;
}
