// Shared plumbing for the experiment harnesses: uniform CLI (trials, seed,
// threads, chart on/off), headers, and paper-style series printing. Every
// bench regenerates one table or figure of the paper; see DESIGN.md §3 for
// the experiment index and EXPERIMENTS.md for recorded results.
#pragma once

#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/model.h"
#include "sim/runner.h"
#include "util/cli.h"

namespace raidrel::bench {

struct BenchOptions {
  std::size_t trials = 60000;
  std::uint64_t seed = 20070625;
  unsigned threads = 0;
  double bucket_hours = 730.0;
  bool chart = true;  ///< draw ASCII figures (disable with --no-chart)
  bool csv = false;   ///< also dump CSV rows (enable with --csv)
  /// Run-manifest destination (see docs/MODEL.md §8): by default every
  /// bench writes `<bench-name>.manifest.json` next to its results,
  /// recording every Monte Carlo run it performed (seed, config digest,
  /// event totals, throughput). Override with --manifest <path>; disable
  /// with --no-manifest (empty path = disabled).
  std::string manifest_path;

  /// Options for one Monte Carlo run. When manifests are enabled, each
  /// call attaches a fresh telemetry sink; all sinks are serialized to
  /// `manifest_path` when the bench exits.
  [[nodiscard]] sim::RunOptions run_options() const;
};

/// Parse the uniform flags; `default_trials` lets heavy benches pick a
/// lighter default, and `extra_flags` names the flags a harness reads
/// itself. An unknown flag, or a malformed or out-of-range numeric value,
/// prints the error and exits 2 without running.
BenchOptions parse_options(
    int argc, char** argv, std::size_t default_trials = 60000,
    std::initializer_list<std::string_view> extra_flags = {});

/// "[lower, upper]" with `digits` decimals, for confidence-interval cells.
std::string format_interval(double lower, double upper, int digits);

/// Print the standard experiment banner.
void print_header(const std::string& experiment_id,
                  const std::string& paper_claim, const BenchOptions& opt);

/// A named cumulative-DDF series sampled on the run's bucket edges.
struct Series {
  std::string name;
  std::vector<double> times;   ///< bucket edges, hours
  std::vector<double> values;  ///< DDFs per 1000 groups
};

/// Extract the cumulative curve of a result.
Series cumulative_series(const std::string& name,
                         const sim::RunResult& result,
                         sim::Estimator est = sim::Estimator::kCounting);

/// Extract the per-interval ROCOF curve of a result.
Series rocof_series(const std::string& name, const sim::RunResult& result);

/// Print several series as a year-by-year table plus (optionally) an ASCII
/// chart mirroring the paper's figure.
void print_series_table(const std::vector<Series>& series,
                        const BenchOptions& opt, const std::string& x_label,
                        const std::string& y_label);

/// One benchmark's measured throughput, destined for the machine-readable
/// perf artifact (BENCH_perf.json). Engine benchmarks also record which
/// model they simulated (config digest, see sim::config_digest) and the
/// resolved worker thread count; pure microbenchmarks (e.g. a single
/// distribution draw) leave both at zero.
struct PerfRecord {
  std::string name;
  double real_time_ns = 0.0;       ///< wall time per work item (v3)
  double trials_per_second = 0.0;  ///< items/s (0 when not reported)
  std::uint64_t iterations = 0;
  std::uint64_t config_digest = 0; ///< simulated model (0 = none)
  unsigned threads = 0;            ///< engine worker threads (0 = n/a)
  std::size_t batch_width = 0;     ///< lockstep lane width (0 = n/a)
  std::string isa;        ///< resolved lane backend ("" = not recorded)
  std::string math_tier;  ///< lane math tier ("" = not recorded)
  /// Estimator the simulated model ran on ("events" or "latent-credit",
  /// docs/MODEL.md §19; "" = not recorded). Like math_tier, differing
  /// values are never compared by the gate.
  std::string estimator;
};

/// Serialize perf records as a `raidrel-bench-perf/3` JSON document so CI
/// can archive throughput next to the commit that produced it. Version 3
/// normalizes `real_time_ns` to *per work item* — a batched engine
/// benchmark whose iteration runs a 64-trial lane reports the per-trial
/// time, directly comparable with the scalar engine's, instead of a
/// per-lane number 64× larger — and tags engine benchmarks with the
/// resolved SIMD backend (`isa`) and math tier (`math_tier`) so archived
/// numbers are attributable to the code path that produced them (and the
/// gate can refuse unlike-for-unlike comparisons). Version 2 dropped the
/// `trials_per_second: 0` placeholder from microbenchmarks and added
/// `batch_width`. Consumers (bench/perf_gate.cpp) accept all versions;
/// cross-version real_time_ns comparisons are only meaningful through
/// trials_per_second, which has always been per-item.
void write_perf_json(std::ostream& out,
                     const std::vector<PerfRecord>& records);

}  // namespace raidrel::bench
