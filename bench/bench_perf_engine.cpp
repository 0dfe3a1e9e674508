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

#include "bench_support.h"
#include "core/presets.h"
#include "obs/run_telemetry.h"
#include "raid/group_config.h"
#include "sim/batch_engine.h"
#include "sim/group_simulator.h"
#include "sim/lane_ops.h"
#include "sim/runner.h"
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
  std::size_t numa_nodes = 0;
};

std::map<std::string, EngineMeta>& perf_meta() {
  static std::map<std::string, EngineMeta> meta;
  return meta;
}

void note_engine_config(const std::string& bench_name,
                        std::uint64_t config_digest, unsigned threads,
                        std::size_t batch_width = 0,
                        std::size_t items_per_iteration = 1,
                        sim::MathTier tier = sim::MathTier::kExact) {
  EngineMeta meta;
  meta.config_digest = config_digest;
  meta.threads = threads;
  meta.batch_width = batch_width;
  meta.items_per_iteration = items_per_iteration;
  if (batch_width > 1) {
    meta.isa = util::isa_name(sim::lane_ops().isa);
    meta.math_tier = sim::math_tier_name(tier);
  }
  // Scheduling topology the number was measured under: a NUMA-pinned
  // multi-node run is not like-for-like with a single-node one, and the
  // gate refuses to compare across differing values.
  meta.numa_nodes = util::active_topology().node_count();
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

// The mission benchmarks run the engine exactly as the runner drives it:
// the lockstep lane engine at the default width. One iteration = one lane
// of kDefaultBatchWidth trials, so items/s (trials per second) is the
// number to compare across commits — it is lane-width-independent, unlike
// the per-iteration wall time. BM_GroupMission_BaseCase_Scalar keeps the
// one-trial-at-a-time engine measured alongside.
void BM_GroupMission_BaseCase(benchmark::State& state) {
  const auto cfg = core::presets::base_case().to_group_config();
  note_engine_config("BM_GroupMission_BaseCase", sim::config_digest(cfg), 1,
                     sim::kDefaultBatchWidth, sim::kDefaultBatchWidth);
  sim::BatchGroupSimulator simulator(cfg, sim::kDefaultBatchWidth);
  rng::StreamFactory streams(3);
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
BENCHMARK(BM_GroupMission_BaseCase);

// Same lane, fast math tier (sim/lane_ops.h): the polynomial log/exp
// kernels replace libm in the hot Weibull refills. The delta against
// BM_GroupMission_BaseCase is the price of bit-exactness.
void BM_GroupMission_BaseCase_FastMath(benchmark::State& state) {
  const auto cfg = core::presets::base_case().to_group_config();
  note_engine_config("BM_GroupMission_BaseCase_FastMath",
                     sim::config_digest(cfg), 1, sim::kDefaultBatchWidth,
                     sim::kDefaultBatchWidth, sim::MathTier::kFast);
  sim::BatchGroupSimulator simulator(cfg, sim::kDefaultBatchWidth,
                                     sim::KernelPolicy::kLowered,
                                     std::nullopt, sim::MathTier::kFast);
  rng::StreamFactory streams(3);
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
BENCHMARK(BM_GroupMission_BaseCase_FastMath);

// Long-tail mission: a short window over the base-case laws, so most
// trials see only their install burst and settle, while the unlucky few
// ride defect/scrub chains for many more rounds. The lane spends most
// wall rounds mostly empty — the settled-lane compaction regime. The
// fused round loop's sweep cost tracks the number of LIVE lanes, so its
// per-trial gain here exceeds the full-lane base case (super-linear
// relative to mean occupancy). Watched by the perf gate;
// active_lane_ratio is reported so the regime is visible per commit.
void BM_GroupMission_LongTail(benchmark::State& state) {
  raid::SlotModel m;
  m.time_to_op_failure =
      std::make_unique<stats::Weibull>(0.0, 461386.0, 1.12);
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 12.0, 2.0);
  m.time_to_latent_defect =
      std::make_unique<stats::Weibull>(0.0, 9259.0, 1.0);
  m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, 168.0, 3.0);
  const auto cfg = raid::make_uniform_group(8, 1, m, 2000.0);
  note_engine_config("BM_GroupMission_LongTail", sim::config_digest(cfg), 1,
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
                     sim::config_digest(cfg), 1);
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
  note_engine_config("BM_GroupMission_NoLatent", sim::config_digest(cfg), 1,
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

void BM_TimingEngineMission_BaseCase(benchmark::State& state) {
  auto cfg = core::presets::base_case().to_group_config();
  cfg.clear_defects_on_ddf_restore = false;
  note_engine_config("BM_TimingEngineMission_BaseCase",
                     sim::config_digest(cfg), 1);
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

void BM_FullRun_MultiThreaded(benchmark::State& state) {
  const auto cfg = core::presets::base_case().to_group_config();
  note_engine_config("BM_FullRun_MultiThreaded", sim::config_digest(cfg),
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
// worker, 2 workers, and every hardware thread. On a multi-node machine
// the pool pins workers and the runner claims node-local trial
// partitions (sim/thread_pool.h), so this curve is where a NUMA
// scheduling regression would show; CI logs the three points per commit.
void BM_FullRun_ThreadScaling(benchmark::State& state) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  const auto cfg = core::presets::base_case().to_group_config();
  note_engine_config(
      "BM_FullRun_ThreadScaling/" + std::to_string(threads),
      sim::config_digest(cfg), threads, sim::kDefaultBatchWidth, 2000);
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
  note_engine_config("BM_FullRun_Telemetry", sim::config_digest(cfg),
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
        rec.numa_nodes = meta->second.numa_nodes;
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
