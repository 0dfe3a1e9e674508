// End-to-end benchmark for raidrel (workloads, metrics and the layer map
// are documented in README.md next to this file).
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--scratch DIR] [--spans FILE] [--out FILE]
//
// One process runs one workload in a closed loop: it times the workload's
// set-up several times (setup_s), computes the answer once untimed, then
// recomputes it for --seconds, each rep on fresh inputs derived from
// --seed, and reports medians. Answers come only from the library's public
// entry points — sim::run_until_converged, sim::run_fleet_monte_carlo and
// sweep::SweepRunner::run — and are checked: a final rep repeats the first
// rep's inputs and must reproduce its digest, and every workload carries
// its own reference checks (Workload::check, check_scalar_vs_batched).
//
// --trace 1 is a separate process so end-to-end numbers stay trace-free.
// It replays the answer from bench code with spans around every layer
// call (the replay must equal the library's answer), probes each layer on
// the workload's own configuration, and reports the per-layer metrics.
//
// Output: one `name value unit` line per metric, then, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exit status 0 only when every check passed; 2 on a usage error.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <ctime>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include <sys/resource.h>

#include "analytic/markov.h"
#include "core/presets.h"
#include "core/scenario.h"
#include "fault/fault_injection.h"
#include "obs/json_reader.h"
#include "obs/json_writer.h"
#include "obs/run_telemetry.h"
#include "rng/rng.h"
#include "sim/batch_engine.h"
#include "sim/convergence.h"
#include "sim/fleet_simulator.h"
#include "sim/group_simulator.h"
#include "sim/lane_ops.h"
#include "sim/runner.h"
#include "sim/slot_kernel.h"
#include "sim/thread_pool.h"
#include "sim/timing_engine.h"
#include "sweep/sweep_runner.h"
#include "sweep/sweep_spec.h"

namespace {

using namespace raidrel;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double elapsed(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

/// Interpolated (type-7) quantile; `v` must be non-empty.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double h = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (h - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Median over `samples` of the per-call time of `calls` back-to-back calls.
template <typename F>
double per_call_s(F&& f, std::size_t calls, int samples) {
  std::vector<double> t;
  for (int s = 0; s < samples; ++s) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) f();
    t.push_back(elapsed(t0) / static_cast<double>(calls));
  }
  return median(t);
}

/// Keeps probe outputs observable so timed loops are not folded away.
volatile double g_sink = 0.0;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Command line

struct Args {
  std::string workload;
  std::uint64_t seed = 20070625;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string scratch = ".bench_build/scratch";
  std::string spans;  ///< span dump of a traced run; empty = none
  std::string out;    ///< copy of the result object; empty = none
};

Args parse_args(int argc, char** argv) {
  Args a;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string(argv[i]) + " needs a value");
    }
    return argv[++i];
  };
  auto number = [](const std::string& flag, const std::string& text) {
    std::size_t used = 0;
    double v = 0.0;
    try {
      v = std::stod(text, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != text.size() || !std::isfinite(v) || v < 0.0) {
      throw std::invalid_argument(flag + " needs a non-negative number, got '" +
                                  text + "'");
    }
    return v;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      a.workload = value(i);
    } else if (flag == "--seed") {
      const std::string text = value(i);
      std::size_t used = 0;
      try {
        a.seed = std::stoull(text, &used);
      } catch (const std::exception&) {
        used = 0;
      }
      if (used != text.size() || text.empty() || text[0] == '-') {
        throw std::invalid_argument("--seed needs an unsigned integer, got '" +
                                    text + "'");
      }
    } else if (flag == "--seconds") {
      a.seconds = number(flag, value(i));
    } else if (flag == "--trace") {
      const std::string t = value(i);
      if (t != "0" && t != "1") {
        throw std::invalid_argument("--trace needs 0 or 1");
      }
      a.trace = t == "1";
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--scratch") {
      a.scratch = value(i);
    } else if (flag == "--spans") {
      a.spans = value(i);
    } else if (flag == "--out") {
      a.out = value(i);
    } else {
      throw std::invalid_argument("unknown argument '" + flag + "'");
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

// ---------------------------------------------------------------------------
// Results

class Report {
 public:
  void metric(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  void check(const std::string& name, bool ok, const std::string& detail = "") {
    std::cout << "check " << name << (ok ? " ok" : " FAIL")
              << (detail.empty() ? "" : " (" + detail + ")") << "\n";
    if (!ok) ++failed_checks_;
  }

  void attempts(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  [[nodiscard]] bool correct() const { return failed_checks_ == 0; }

  /// Metric lines, then the result object as the last line of `os`.
  void print(std::ostream& os) const {
    for (const Metric& m : metrics_) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", m.value);
      os << m.name << ' ' << buf << ' ' << m.unit << "\n";
    }
    write_json(os, nullptr);
    os << std::endl;
  }

  /// The result object plus the run's identity, for bench results sets.
  void write_file(const std::string& path, const Args& args) const {
    std::ofstream out(path);
    write_json(out, &args);
    out << "\n";
    if (!out.good()) throw std::runtime_error("cannot write " + path);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  void write_json(std::ostream& os, const Args* args) const {
    obs::JsonWriter w(os, 0);
    w.begin_object();
    if (args != nullptr) {
      w.kv("workload", std::string_view(args->workload));
      w.kv("seed", args->seed);
      w.kv("trace", args->trace);
    }
    w.kv("correct", correct());
    w.kv("attempted", std::max<std::uint64_t>(attempted_, 1));
    w.kv("failed", failed_);
    w.key("metrics");
    w.begin_object();
    for (const Metric& m : metrics_) {
      w.key(m.name);
      w.begin_object();
      w.kv("value", m.value);
      w.kv("unit", std::string_view(m.unit));
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }

  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  int failed_checks_ = 0;
};

// ---------------------------------------------------------------------------
// Spans: recorded in memory around each call the bench makes into a layer,
// written out when the run ends.

class Tracer {
 public:
  std::uint64_t begin(std::string_view name, std::uint64_t parent) {
    const double now = elapsed(origin_);
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t id = spans_.size() + 1;
    const std::uint64_t root = parent == 0 ? id : spans_[parent - 1].root;
    spans_.push_back({id, parent, root, std::string(name), now, now});
    return id;
  }

  void end(std::uint64_t id) {
    const double now = elapsed(origin_);
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end = now;
  }

  /// Durations of every span called `name`, in seconds.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> d;
    for (const SpanRecord& s : spans_) {
      if (s.name == name) d.push_back(s.end - s.start);
    }
    return d;
  }

  /// Self time of the spans called `name`: their durations minus the time
  /// their direct children cover.
  [[nodiscard]] double self_seconds(std::string_view name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    double self = 0.0;
    std::unordered_map<std::uint64_t, double> child;
    for (const SpanRecord& s : spans_) {
      if (s.parent != 0) child[s.parent] += s.end - s.start;
    }
    for (const SpanRecord& s : spans_) {
      if (s.name == name) self += (s.end - s.start) - child[s.id];
    }
    return self;
  }

  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
  }

  /// One JSON object per line: id, parent, request (root span), name,
  /// start/end seconds since the tracer was created.
  void append_to(std::ostream& os) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const SpanRecord& s : spans_) {
      obs::JsonWriter w(os, 0);
      w.begin_object();
      w.kv("id", s.id);
      w.kv("parent", s.parent);
      w.kv("request", s.root);
      w.kv("name", std::string_view(s.name));
      w.kv("start_s", s.start);
      w.kv("end_s", s.end);
      w.end_object();
      os << "\n";
    }
  }

 private:
  struct SpanRecord {
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t root;
    std::string name;
    double start;
    double end;
  };
  mutable std::mutex mutex_;
  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRecord> spans_;
};

/// RAII span; a null tracer records nothing (the untraced replay).
class Span {
 public:
  Span(Tracer* tracer, std::string_view name, std::uint64_t parent = 0)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, parent) : 0) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  std::uint64_t id_;
};

// ---------------------------------------------------------------------------
// Digests of a RunResult, for equality checks.

void put(std::string& s, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g;", v);
  s += buf;
}
void put(std::string& s, std::uint64_t v) {
  s += std::to_string(v);
  s += ';';
}

/// Outputs that are sums of integers, hence identical at any thread count
/// and merge order. A weighted (tilted) run's event series are not.
std::uint64_t count_digest(const sim::RunResult& r, bool weighted) {
  std::string s;
  put(s, static_cast<std::uint64_t>(r.trials()));
  put(s, r.op_failures());
  put(s, r.latent_defects());
  put(s, r.scrubs_completed());
  put(s, r.restores_completed());
  put(s, r.spare_arrivals());
  if (!weighted) {
    for (const double v : r.rocof_per_1000()) put(s, v);
  }
  return obs::fnv1a64(s);
}

/// Every output bit; equal only for the same trials merged in the same
/// order (single-threaded runs).
std::uint64_t exact_digest(const sim::RunResult& r) {
  std::string s;
  put(s, count_digest(r, false));
  for (const auto est : {sim::Estimator::kCounting,
                         sim::Estimator::kDoubleOpProbe}) {
    for (const double v : r.rocof_per_1000(est)) put(s, v);
  }
  put(s, r.per_trial_ddfs().mean());
  put(s, r.per_trial_ddfs().variance());
  put(s, r.ess());
  put(s, r.weight_sum());
  put(s, r.max_weight());
  return obs::fnv1a64(s);
}

std::uint64_t converged_digest(const sim::ConvergedRun& run, bool weighted) {
  std::string s;
  put(s, count_digest(run.result, weighted));
  put(s, static_cast<std::uint64_t>(run.batches));
  s += sim::to_string(run.stop);
  return obs::fnv1a64(s);
}

/// Inputs of timed rep `rep`: rep 0 uses the seed itself, later reps a
/// splitmix64 derivation, so every rep simulates fresh trials.
std::uint64_t rep_seed(std::uint64_t seed, std::uint64_t rep) {
  if (rep == 0) return seed;
  std::uint64_t state = seed ^ (rep * 0x9E3779B97F4A7C15ULL);
  return rng::splitmix64(state);
}

// ---------------------------------------------------------------------------
// Workload inputs

/// Work sizes: the benchmark's, and the ~1% smoke-test sizes.
struct Sizes {
  double converge_rsem;            ///< converge_base relative-SEM target
  std::size_t converge_batch;      ///< trials per convergence batch
  std::size_t rare_trials;         ///< rare_is fixed trial budget per rep
  std::size_t rare_batch;
  std::size_t grid_trials;         ///< trials per sweep cell
  bool full_grid;                  ///< 270-cell grid, else 12 cells
  std::size_t fleet_missions;      ///< fleet missions per rep
  std::size_t fleet_batch;         ///< missions per traced replay batch
  std::size_t fleet_check_missions;
  std::size_t check_trials;        ///< scalar-vs-batched prefix
  std::size_t probe_lanes;         ///< lanes per engine probe
  std::size_t probe_calls;         ///< calls per kernel-probe sample
  int probe_samples;
  int min_reps;                    ///< timed reps even if --seconds is up
  int trace_reps;                  ///< untraced/traced pairs in --trace 1
};

// converge_base needs ~294k trials at relative SEM 0.005 (per-trial CV^2
// ~7.4 at the base case), so every seed stops after the 15th 20k batch.
// rare_is runs a fixed budget: time-to-SEM varies 3x across seeds in
// the rare-event regime; its 100k batches keep a preempted worker from
// stalling a batch barrier for a large share of the batch. Sweep cells get
// 500 trials: checkpointing is then ~10-20% of a cold pass; a larger share
// serializes the shards on the manifest lock and makes wall time swing
// with every preempted lock holder.
constexpr Sizes kFullSizes{.converge_rsem = 0.005,
                           .converge_batch = 20000,
                           .rare_trials = 2'000'000,
                           .rare_batch = 100000,
                           .grid_trials = 500,
                           .full_grid = true,
                           .fleet_missions = 1000,
                           .fleet_batch = 100,
                           .fleet_check_missions = 200,
                           .check_trials = 4096,
                           .probe_lanes = 64,
                           .probe_calls = 2000,
                           .probe_samples = 9,
                           .min_reps = 5,
                           .trace_reps = 3};
constexpr Sizes kSmokeSizes{.converge_rsem = 0.05,
                            .converge_batch = 1000,
                            .rare_trials = 200'000,
                            .rare_batch = 20000,
                            .grid_trials = 50,
                            .full_grid = false,
                            .fleet_missions = 20,
                            .fleet_batch = 5,
                            .fleet_check_missions = 10,
                            .check_trials = 1024,
                            .probe_lanes = 4,
                            .probe_calls = 50,
                            .probe_samples = 3,
                            .min_reps = 1,
                            .trace_reps = 1};

constexpr double kRareLambda = 2e-5;     // op failures per drive-hour
constexpr double kRareMu = 1.0 / 24.0;   // exponential rebuild, 24 h mean
constexpr double kRareMission = 10000.0;
/// Op-hazard tilt of rare_is. Stronger tilts (8 and up) drive the weight
/// distribution degenerate at affordable budgets: estimates then miss the
/// exact value by many in-sample SEMs on a sizable share of seeds.
constexpr double kRareTheta = 4.0;

core::ScenarioConfig rare_scenario() {
  core::ScenarioConfig s;
  s.name = "rare-raid6";
  s.group_drives = 4;
  s.redundancy = 2;
  s.mission_hours = kRareMission;
  s.ttop = {0.0, 1.0 / kRareLambda, 1.0};
  s.ttr = {0.0, 1.0 / kRareMu, 1.0};
  s.op_tilt = kRareTheta;
  return s;
}

/// Parallel-repair birth-death chain of rare_scenario, absorbing at three
/// drives down: the exact answer rare_is is checked against.
double rare_exact_ddf_probability() {
  const double l = kRareLambda;
  const double m = kRareMu;
  const analytic::MarkovChain chain(
      4, {-4.0 * l, 4.0 * l, 0.0, 0.0,                          //
          m, -(m + 3.0 * l), 3.0 * l, 0.0,                      //
          0.0, 2.0 * m, -(2.0 * m + 2.0 * l), 2.0 * l,          //
          0.0, 0.0, 0.0, 0.0});
  return chain.absorption_probability(0, 3, kRareMission);
}

/// One group of fleet_spares: aging drives (eta compressed to 23,000 h)
/// over a 2.5-year window.
core::ScenarioConfig fleet_group_scenario() {
  core::ScenarioConfig s;
  s.name = "aging-group";
  s.mission_hours = 21900.0;
  s.ttop = {0.0, 23000.0, 1.12};
  s.ttr = {6.0, 12.0, 2.0};
  s.ttld = stats::WeibullParams{0.0, 9259.0, 1.0};
  s.ttscrub = stats::WeibullParams{6.0, 168.0, 3.0};
  return s;
}

std::optional<sim::TiltSpec> tilt_of(const core::ScenarioConfig& s) {
  if (s.op_tilt == 1.0 && s.ld_tilt == 1.0) return std::nullopt;
  return sim::TiltSpec{s.op_tilt, s.ld_tilt};
}

// ---------------------------------------------------------------------------
// Replays: the bench drives the same runner calls a library entry point
// makes, with spans around each call.

struct Replay {
  sim::ConvergedRun run;
  double wall_s = 0.0;
};

/// run_until_converged's batch loop and stop rules, batch by batch through
/// run_monte_carlo + RunResult::merge. For the same options the merged
/// result equals run_until_converged's, bit for bit at one thread.
Replay replay_convergence(const raid::GroupConfig& cfg,
                          const sim::ConvergenceOptions& opt,
                          sim::ThreadPool* pool, Tracer* tracer,
                          std::uint64_t parent) {
  const auto t0 = Clock::now();
  Replay out{sim::ConvergedRun{
      sim::RunResult(cfg.mission_hours, opt.bucket_hours)}};
  const Span loop(tracer, "convergence", parent);
  std::uint64_t next_index = 0;
  while (out.run.result.trials() < opt.max_trials) {
    const std::size_t batch = std::min(
        opt.batch_trials, opt.max_trials - out.run.result.trials());
    sim::RunOptions run;
    run.trials = batch;
    run.seed = opt.seed;
    run.threads = opt.threads;
    run.bucket_hours = opt.bucket_hours;
    run.first_trial_index = next_index;
    run.pool = pool;
    run.batch_width = opt.batch_width;
    run.tilt = opt.tilt;
    run.math_tier = opt.math_tier;
    std::optional<sim::RunResult> part;
    {
      const Span s(tracer, "runner", loop.id());
      part.emplace(sim::run_monte_carlo(cfg, run));
    }
    {
      const Span s(tracer, "run_result.merge", loop.id());
      out.run.result.merge(*part);
    }
    next_index += batch;
    ++out.run.batches;

    const std::size_t trials = out.run.result.trials();
    const double mean = out.run.result.total_ddfs_per_1000();
    const double sem = out.run.result.total_ddfs_per_1000_sem();
    out.run.relative_sem = mean > 0.0
                               ? sem / mean
                               : std::numeric_limits<double>::infinity();
    out.run.absolute_sem = sem;
    out.run.ess = out.run.result.ess();
    if (trials < opt.min_trials) continue;
    if (out.run.relative_sem <= opt.target_relative_sem) {
      out.run.converged = true;
      out.run.stop = sim::ConvergedRun::StopRule::kRelativeSem;
      break;
    }
    if (opt.target_absolute_sem > 0.0 && sem <= opt.target_absolute_sem) {
      out.run.converged = true;
      out.run.stop = sim::ConvergedRun::StopRule::kAbsoluteSem;
      break;
    }
    if (opt.target_ess > 0.0 && out.run.ess >= opt.target_ess) {
      out.run.converged = true;
      out.run.stop = sim::ConvergedRun::StopRule::kEss;
      break;
    }
    if (opt.zero_ddf_upper_bound > 0.0 && mean == 0.0 && out.run.ess > 0.0 &&
        3000.0 / out.run.ess <= opt.zero_ddf_upper_bound) {
      out.run.converged = true;
      out.run.stop = sim::ConvergedRun::StopRule::kZeroDdf;
      break;
    }
  }
  out.wall_s = elapsed(t0);
  return out;
}

// ---------------------------------------------------------------------------
// Workloads

/// Wall-clock and whole-process CPU time since construction. CPU time
/// leaves out the time threads wait for a core, so it is the steadier of
/// the two on a shared host.
class Stopwatch {
 public:
  [[nodiscard]] double wall_s() const { return elapsed(wall0_); }
  [[nodiscard]] double cpu_s() const { return cpu_now() - cpu0_; }

 private:
  static double cpu_now() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  }
  Clock::time_point wall0_ = Clock::now();
  double cpu0_ = cpu_now();
};

/// One computed answer.
struct Answer {
  double wall_s = 0.0;
  double cpu_s = 0.0;         ///< CPU seconds of every thread
  std::uint64_t digest = 0;   ///< equal for equal inputs
  std::uint64_t attempted = 1;
  std::uint64_t failed = 0;
};

/// What a traced replay reports besides its spans.
struct ReplayOutcome {
  double wall_s = 0.0;
  std::uint64_t trials = 0;
  bool matches = true;  ///< replay equals the library's answer
  std::string detail;
};

class Workload {
 public:
  explicit Workload(const Sizes& sizes, unsigned threads)
      : sizes_(sizes), threads_(threads) {}
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  /// Build every input from scratch (timed as setup_s).
  virtual void setup() = 0;
  /// Compute the answer for one rep's inputs.
  virtual Answer answer(std::uint64_t seed) = 0;
  /// The answer as replay() computes it: the same library calls without
  /// work the replay leaves out (a sweep's manifest I/O).
  virtual Answer answer_as_replayed(std::uint64_t seed) {
    return answer(seed);
  }
  /// Reference checks that are not implied by the answers themselves.
  virtual void check(std::uint64_t seed, Report& report) = 0;
  /// Replay the answer for `seed` from bench code at `threads` (spans go
  /// to `tracer` when non-null); `verify` compares it with the library's.
  virtual ReplayOutcome replay(std::uint64_t seed, unsigned threads,
                               Tracer* tracer, bool verify) = 0;

  /// The group the layer probes run on, and its tilt.
  [[nodiscard]] virtual const core::ScenarioConfig& scenario() const = 0;
  [[nodiscard]] virtual const raid::GroupConfig& group() const = 0;
  /// The fleet the fleet-engine probe runs (a one-group fleet unless the
  /// workload is a fleet).
  [[nodiscard]] virtual sim::FleetConfig probe_fleet() const {
    sim::FleetConfig f;
    f.groups.push_back(group().clone());
    return f;
  }
  /// The sweep the sweep-layer probe runs, and its per-cell options.
  [[nodiscard]] virtual std::vector<sweep::SweepCell> probe_cells() const {
    sweep::SweepSpec spec("probe", scenario());
    spec.add_restore_eta_axis({6.0, 9.0, 12.0, 18.0, 24.0, 36.0, 48.0, 72.0});
    return spec.expand();
  }
  [[nodiscard]] sim::ConvergenceOptions cell_options(
      std::uint64_t seed) const {
    sim::ConvergenceOptions c;
    c.batch_trials = c.min_trials = c.max_trials = sizes_.grid_trials;
    c.seed = seed;
    return c;
  }

 protected:
  const Sizes& sizes_;
  unsigned threads_;
};

/// converge_base and rare_is: one convergence study of one group.
class ConvergeWorkload final : public Workload {
 public:
  ConvergeWorkload(const Sizes& sizes, unsigned threads, bool rare)
      : Workload(sizes, threads), rare_(rare) {}

  void setup() override {
    scenario_ = rare_ ? rare_scenario() : core::presets::base_case();
    group_ = scenario_.to_group_config();
    group_.validate();
    conv_ = sim::ConvergenceOptions{};
    conv_.threads = threads_;
    conv_.tilt = tilt_of(scenario_);
    if (rare_) {
      conv_.bucket_hours = kRareMission / 10.0;
      conv_.batch_trials = sizes_.rare_batch;
      conv_.min_trials = conv_.max_trials = sizes_.rare_trials;
    } else {
      conv_.target_relative_sem = sizes_.converge_rsem;
      conv_.batch_trials = conv_.min_trials = sizes_.converge_batch;
      conv_.max_trials = 50'000'000;
    }
    for (const auto& slot : group_.slots) {
      if (conv_.tilt) {
        sim::validate_tilt(*conv_.tilt, sim::SlotKernel::compile(slot));
      }
    }
  }

  Answer answer(std::uint64_t seed) override {
    sim::ConvergenceOptions c = conv_;
    c.seed = seed;
    const Stopwatch watch;
    const sim::ConvergedRun run = sim::run_until_converged(group_, c);
    Answer a;
    a.wall_s = watch.wall_s();
    a.cpu_s = watch.cpu_s();
    a.digest = converged_digest(run, rare_);
    // converge_base must reach its SEM target; rare_is runs its budget.
    const bool ok = rare_ ? run.stop == sim::ConvergedRun::StopRule::kBudget
                          : run.stop == sim::ConvergedRun::StopRule::kRelativeSem;
    a.failed = ok ? 0 : 1;
    // The final rep repeats rep 0's inputs; pool each sample once.
    if (rare_ && std::find(pooled_seeds_.begin(), pooled_seeds_.end(),
                           seed) == pooled_seeds_.end()) {
      pooled_seeds_.push_back(seed);
      if (pooled_) {
        pooled_->merge(run.result);
      } else {
        pooled_.emplace(run.result);
      }
    }
    return a;
  }

  void check(std::uint64_t, Report& report) override {
    if (!rare_ || !pooled_) return;
    // Every distinct rep is an independent sample of the same estimator;
    // pooled, they must bracket the exact CTMC value within 4 SEM.
    const double p = rare_exact_ddf_probability();
    const double est = pooled_->total_ddfs_per_1000() / 1000.0;
    const double sem = pooled_->total_ddfs_per_1000_sem() / 1000.0;
    std::ostringstream d;
    d << "estimate " << est << " +/- " << sem << " over "
      << pooled_->trials() << " trials, exact " << p;
    report.check("rare_is_matches_ctmc",
                 sem > 0.0 && std::fabs(est - p) <= 4.0 * sem, d.str());
  }

  ReplayOutcome replay(std::uint64_t seed, unsigned threads, Tracer* tracer,
                       bool verify) override {
    sim::ConvergenceOptions c = conv_;
    c.seed = seed;
    c.threads = threads;
    sim::ThreadPool pool;
    const Replay r = replay_convergence(group_, c, &pool, tracer, 0);
    ReplayOutcome out;
    out.wall_s = r.wall_s;
    out.trials = r.run.result.trials();
    if (verify) {
      const sim::ConvergedRun lib = sim::run_until_converged(group_, c);
      // One thread fixes the merge order, so every bit must agree; with
      // more threads only the integer-valued outputs are order-free.
      if (threads == 1) {
        out.matches = exact_digest(lib.result) == exact_digest(r.run.result) &&
                      lib.batches == r.run.batches && lib.stop == r.run.stop &&
                      lib.relative_sem == r.run.relative_sem;
      } else {
        out.matches =
            converged_digest(lib, rare_) == converged_digest(r.run, rare_);
      }
      out.detail = std::to_string(r.run.batches) + " batches at " +
                   std::to_string(threads) + " thread(s)";
    }
    return out;
  }

  [[nodiscard]] const core::ScenarioConfig& scenario() const override {
    return scenario_;
  }
  [[nodiscard]] const raid::GroupConfig& group() const override {
    return group_;
  }

 private:
  bool rare_;
  core::ScenarioConfig scenario_;
  raid::GroupConfig group_;
  sim::ConvergenceOptions conv_;
  std::optional<sim::RunResult> pooled_;  ///< rare_is: every distinct rep
  std::vector<std::uint64_t> pooled_seeds_;
};

/// sweep_grid: a cold sharded sweep that checkpoints a manifest.
class SweepWorkload final : public Workload {
 public:
  SweepWorkload(const Sizes& sizes, unsigned threads, fs::path dir)
      : Workload(sizes, threads), dir_(std::move(dir)) {}

  void setup() override {
    scenario_ = core::presets::base_case();
    sweep::SweepSpec spec("e2e-grid", scenario_);
    if (sizes_.full_grid) {
      spec.add_scrub_period_axis({12, 24, 48, 72, 96, 168, 336, 720}, true)
          .add_restore_eta_axis({6, 12, 24, 48, 96})
          .add_table1_latent_axis();
    } else {
      spec.add_scrub_period_axis({168}, true).add_table1_latent_axis();
    }
    cells_ = spec.expand();
    group_ = scenario_.to_group_config();
  }

  Answer answer(std::uint64_t seed) override {
    const fs::path dir = fresh_dir("answer");
    const Answer a = timed_sweep(seed, dir / "manifest.json");
    fs::remove_all(dir);
    return a;
  }

  Answer answer_as_replayed(std::uint64_t seed) override {
    return timed_sweep(seed, "");
  }

  void check(std::uint64_t seed, Report& report) override {
    const fs::path dir = fresh_dir("check");
    const fs::path manifest = dir / "manifest.json";
    const auto cold = run_sweep(seed, manifest, true);
    const auto resumed = run_sweep(seed, manifest, true);
    const auto bare = run_sweep(seed, "", true);
    fs::remove_all(dir);
    auto clean = [](const sweep::SweepResult& r) {
      return r.complete && r.quarantined.empty() && r.io_errors.empty();
    };
    report.check("sweep_complete_without_errors",
                 clean(cold) && clean(resumed) && clean(bare));
    report.check("sweep_resume_reads_every_cell",
                 resumed.simulated == 0 && resumed.cached == cells_.size());
    report.check("sweep_digests_equal",
                 cold.sweep_digest == resumed.sweep_digest &&
                     cold.sweep_digest == bare.sweep_digest);
  }

  ReplayOutcome replay(std::uint64_t seed, unsigned threads, Tracer* tracer,
                       bool verify) override {
    // Shard the cells over `threads` workers, each cell a one-thread
    // convergence replay — the SweepRunner's execution shape minus I/O.
    const auto t0 = Clock::now();
    std::vector<std::optional<sim::RunResult>> results(cells_.size());
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= cells_.size()) return;
        const raid::GroupConfig cfg = cells_[i].scenario.to_group_config();
        sim::ConvergenceOptions c = cell_options(seed);
        c.threads = 1;
        c.tilt = tilt_of(cells_[i].scenario);
        results[i].emplace(
            replay_convergence(cfg, c, nullptr, tracer, 0).run.result);
      }
    };
    if (threads <= 1) {
      worker();
    } else {
      sim::ThreadPool pool;
      pool.run(threads, worker);
    }
    ReplayOutcome out;
    out.wall_s = elapsed(t0);
    for (const auto& r : results) out.trials += r->trials();
    if (verify) {
      const auto lib = run_sweep(seed, "", true);
      out.matches = lib.complete && lib.cells.size() == cells_.size();
      for (std::size_t i = 0; out.matches && i < lib.cells.size(); ++i) {
        const sweep::CellResult& c = lib.cells[i];
        const sim::RunResult& r = *results[c.index];
        out.matches = c.trials == r.trials() &&
                      c.op_failures == r.op_failures() &&
                      c.latent_defects == r.latent_defects() &&
                      c.scrubs_completed == r.scrubs_completed() &&
                      c.restores_completed == r.restores_completed() &&
                      c.total_ddfs_per_1000 == r.total_ddfs_per_1000();
        if (!out.matches) out.detail = "cell " + c.label + " differs";
      }
    }
    return out;
  }

  [[nodiscard]] const core::ScenarioConfig& scenario() const override {
    return scenario_;
  }
  [[nodiscard]] const raid::GroupConfig& group() const override {
    return group_;
  }
  [[nodiscard]] std::vector<sweep::SweepCell> probe_cells() const override {
    return cells_;
  }

  sweep::SweepResult run_sweep(std::uint64_t seed, const fs::path& manifest,
                               bool resume,
                               fault::FaultInjector* fault = nullptr) const {
    return run_cells(cells_, cell_options(seed), threads_, manifest, resume,
                     fault);
  }

  static sweep::SweepResult run_cells(
      const std::vector<sweep::SweepCell>& cells,
      const sim::ConvergenceOptions& conv, unsigned threads,
      const fs::path& manifest, bool resume, fault::FaultInjector* fault) {
    sweep::SweepOptions so;
    so.convergence = conv;
    so.threads = threads;
    so.manifest_path = manifest.string();
    so.resume = resume;
    so.fault = fault;
    return sweep::SweepRunner(so).run("e2e-grid", cells);
  }

 private:
  /// A cold pass (no cached cells); failed = cells without a result plus
  /// survived I/O errors.
  Answer timed_sweep(std::uint64_t seed, const fs::path& manifest) const {
    const Stopwatch watch;
    const sweep::SweepResult r = run_sweep(seed, manifest, true);
    Answer a;
    a.wall_s = watch.wall_s();
    a.cpu_s = watch.cpu_s();
    a.digest = r.sweep_digest;
    a.attempted = cells_.size();
    a.failed = cells_.size() - r.cells.size() + r.io_errors.size();
    return a;
  }

  fs::path fresh_dir(const char* name) const {
    const fs::path dir = dir_ / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
  }

  fs::path dir_;
  core::ScenarioConfig scenario_;
  raid::GroupConfig group_;
  std::vector<sweep::SweepCell> cells_;
};

/// fleet_spares: 50 aging groups sharing a pool of 4 spares.
class FleetWorkload final : public Workload {
 public:
  FleetWorkload(const Sizes& sizes, unsigned threads)
      : Workload(sizes, threads) {}

  void setup() override {
    scenario_ = fleet_group_scenario();
    group_ = scenario_.to_group_config();
    fleet_ = make_fleet();
    fleet_.validate();
  }

  Answer answer(std::uint64_t seed) override {
    const Stopwatch watch;
    const sim::RunResult r = run(seed, sizes_.fleet_missions, 0, threads_);
    Answer a;
    a.wall_s = watch.wall_s();
    a.cpu_s = watch.cpu_s();
    a.digest = count_digest(r, false);
    return a;
  }

  void check(std::uint64_t seed, Report& report) override {
    const auto one = run(seed, sizes_.fleet_check_missions, 0, 1);
    const auto many = run(seed, sizes_.fleet_check_missions, 0, threads_);
    report.check("fleet_counts_thread_invariant",
                 count_digest(one, false) == count_digest(many, false),
                 "1 vs " + std::to_string(threads_) + " threads");
  }

  ReplayOutcome replay(std::uint64_t seed, unsigned threads, Tracer* tracer,
                       bool verify) override {
    const auto t0 = Clock::now();
    sim::RunResult total(fleet_.mission_hours(), 730.0);
    {
      const Span loop(tracer, "convergence");
      for (std::size_t first = 0; first < sizes_.fleet_missions;
           first += sizes_.fleet_batch) {
        const std::size_t n =
            std::min(sizes_.fleet_batch, sizes_.fleet_missions - first);
        std::optional<sim::RunResult> part;
        {
          const Span s(tracer, "runner", loop.id());
          part.emplace(run(seed, n, first, threads));
        }
        const Span s(tracer, "run_result.merge", loop.id());
        total.merge(*part);
      }
    }
    ReplayOutcome out;
    out.wall_s = elapsed(t0);
    out.trials = total.trials();
    if (verify) {
      const auto lib = run(seed, sizes_.fleet_missions, 0, threads);
      out.matches = count_digest(lib, false) == count_digest(total, false);
      out.detail = "batched vs one run at " + std::to_string(threads) +
                   " thread(s)";
    }
    return out;
  }

  [[nodiscard]] const core::ScenarioConfig& scenario() const override {
    return scenario_;
  }
  [[nodiscard]] const raid::GroupConfig& group() const override {
    return group_;
  }
  [[nodiscard]] sim::FleetConfig probe_fleet() const override {
    return make_fleet();
  }

 private:
  [[nodiscard]] sim::FleetConfig make_fleet() const {
    sim::FleetConfig f;
    for (int g = 0; g < 50; ++g) f.groups.push_back(group_.clone());
    f.shared_pool = raid::SparePoolConfig{4, 168.0};
    return f;
  }

  sim::RunResult run(std::uint64_t seed, std::size_t missions,
                     std::uint64_t first, unsigned threads) {
    sim::RunOptions o;
    o.trials = missions;
    o.seed = seed;
    o.threads = threads;
    o.first_trial_index = first;
    o.pool = &pool_;
    return sim::run_fleet_monte_carlo(fleet_, o);
  }

  core::ScenarioConfig scenario_;
  raid::GroupConfig group_;
  sim::FleetConfig fleet_;
  /// Persistent workers, started by the first (warm-up) answer: thread
  /// start-up is a one-time cost, and its wall time under a hypervisor
  /// varies too much to compare as set-up.
  sim::ThreadPool pool_;
};

// ---------------------------------------------------------------------------
// Checks shared by every workload

/// The scalar engine and the batched engine must agree on every bit of the
/// first trials of the workload's group.
void check_scalar_vs_batched(const Workload& w, std::uint64_t seed,
                             std::size_t trials, Report& report) {
  sim::RunOptions o;
  o.trials = trials;
  o.seed = seed;
  o.threads = 1;
  o.bucket_hours = w.group().mission_hours / 10.0;
  o.tilt = tilt_of(w.scenario());
  o.batch_width = 1;
  const auto scalar = sim::run_monte_carlo(w.group(), o);
  o.batch_width = sim::kDefaultBatchWidth;
  const auto batched = sim::run_monte_carlo(w.group(), o);
  report.check("scalar_equals_batched",
               exact_digest(scalar) == exact_digest(batched),
               std::to_string(trials) + " trials");
}

// ---------------------------------------------------------------------------
// Layer probes on the workload's own group (single thread, width 64)

std::uint64_t events_of(const sim::TrialResult& t) {
  return t.op_failures + t.latent_defects + t.scrubs_completed +
         t.restores_completed + t.spare_arrivals;
}

void probe_engines(const Workload& w, std::uint64_t seed, const Sizes& z,
                   unsigned threads, Report& report) {
  const raid::GroupConfig& g = w.group();
  const auto tilt = tilt_of(w.scenario());
  const std::size_t width = sim::kDefaultBatchWidth;
  const rng::StreamFactory streams(seed);

  // Batched engine, lane by lane; its trials feed the RunResult probes.
  sim::BatchGroupSimulator batch(g, width, sim::KernelPolicy::kLowered, tilt);
  std::vector<double> lane_s;
  std::vector<sim::TrialResult> trials;
  std::uint64_t events = 0, rounds = 0, active = 0, capacity = 0, settle = 0;
  for (std::size_t lane = 0; lane < z.probe_lanes; ++lane) {
    const auto t0 = Clock::now();
    batch.run_lane(streams, lane * width, width);
    lane_s.push_back(elapsed(t0));
    const auto& oc = batch.occupancy();
    rounds += oc.rounds;
    active += oc.active_lane_rounds;
    capacity += oc.capacity_lane_rounds;
    settle = std::max(settle, oc.settle_rounds_max);
    for (std::size_t k = 0; k < width; ++k) {
      trials.push_back(batch.result(k));
      events += events_of(batch.result(k));
    }
  }
  double lanes_total = 0.0;
  for (const double s : lane_s) lanes_total += s;
  const auto n_trials = static_cast<double>(trials.size());
  report.metric("batch_engine.lane_us", median(lane_s) * 1e6, "us");
  report.metric("batch_engine.trials_per_s", n_trials / lanes_total, "1/s");
  report.metric("batch_engine.events_per_trial",
                static_cast<double>(events) / n_trials, "count");
  report.metric("batch_engine.rounds_per_lane",
                static_cast<double>(rounds) /
                    static_cast<double>(z.probe_lanes),
                "count");
  report.metric("batch_engine.active_lane_ratio",
                capacity > 0 ? static_cast<double>(active) /
                                   static_cast<double>(capacity)
                             : 0.0,
                "ratio");
  report.metric("batch_engine.settle_rounds_max", static_cast<double>(settle),
                "count");

  // Scalar engines, same trials.
  const std::size_t scalar_trials = trials.size();
  auto time_trials = [&](auto&& run_one) {
    std::vector<double> per;
    const std::size_t chunk = std::max<std::size_t>(1, scalar_trials / 8);
    for (std::size_t b = 0; b < scalar_trials; b += chunk) {
      const std::size_t e = std::min(scalar_trials, b + chunk);
      const auto t0 = Clock::now();
      for (std::size_t i = b; i < e; ++i) run_one(i);
      per.push_back(elapsed(t0) / static_cast<double>(e - b));
    }
    return median(per);
  };
  {
    sim::GroupSimulator scalar(g, sim::KernelPolicy::kLowered, tilt);
    sim::TrialResult out;
    report.metric("group_simulator.trial_us", time_trials([&](std::size_t i) {
                    auto rs = streams.stream(i);
                    scalar.run_trial(rs, out);
                    g_sink = g_sink + static_cast<double>(out.op_failures);
                  }) * 1e6,
                  "us");
  }
  {
    sim::TimingDiagramEngine timing(g);
    sim::TrialResult out;
    report.metric("timing_engine.trial_us", time_trials([&](std::size_t i) {
                    auto rs = streams.stream(i);
                    timing.run_trial(rs, out);
                    g_sink = g_sink + static_cast<double>(out.op_failures);
                  }) * 1e6,
                  "us");
  }
  {
    const sim::FleetConfig fleet = w.probe_fleet();
    sim::FleetSimulator sim_fleet(fleet);
    sim::FleetTrialResult out;
    const std::size_t missions =
        std::max<std::size_t>(1, scalar_trials / fleet.groups.size());
    std::vector<double> per;
    std::uint64_t fleet_events = 0, backlog = 0;
    for (std::size_t i = 0; i < missions; ++i) {
      auto rs = streams.stream(i);
      const auto t0 = Clock::now();
      sim_fleet.run_trial(rs, out);
      per.push_back(elapsed(t0) / static_cast<double>(fleet.groups.size()));
      for (const auto& t : out.per_group) fleet_events += events_of(t);
      backlog += sim_fleet.waiting_drives_at_end();
    }
    const auto group_missions =
        static_cast<double>(missions * fleet.groups.size());
    report.metric("fleet.trial_us", median(per) * 1e6, "us");
    report.metric("fleet.events_per_trial",
                  static_cast<double>(fleet_events) / group_missions, "count");
    report.metric("fleet.backlog_at_end",
                  static_cast<double>(backlog) / static_cast<double>(missions),
                  "count");
  }

  // RunResult fold and merge over the recorded trials.
  {
    const double bucket = g.mission_hours / 10.0;
    report.metric("run_result.add_trial_ns",
                  per_call_s(
                      [&] {
                        sim::RunResult r(g.mission_hours, bucket);
                        for (const auto& t : trials) r.add_trial(t);
                        g_sink = g_sink + static_cast<double>(r.trials());
                      },
                      1, z.probe_samples) /
                      n_trials * 1e9,
                  "ns");
    sim::RunResult part(g.mission_hours, bucket);
    for (const auto& t : trials) part.add_trial(t);
    sim::RunResult acc(g.mission_hours, bucket);
    report.metric("run_result.merge_us",
                  per_call_s([&] { acc.merge(part); }, z.probe_calls,
                             z.probe_samples) *
                      1e6,
                  "us");
    g_sink = g_sink + static_cast<double>(acc.trials());
  }
  {
    sim::ThreadPool pool;
    pool.run(threads, [] {});
    report.metric("thread_pool.run_us",
                  per_call_s([&] { pool.run(threads, [] {}); },
                             z.probe_calls / 10 + 1, z.probe_samples) *
                      1e6,
                  "us");
  }
}

void probe_kernels(const Workload& w, std::uint64_t seed, const Sizes& z,
                   Report& report) {
  const raid::GroupConfig& g = w.group();
  const std::size_t width = sim::kDefaultBatchWidth;
  const sim::LaneOps& ops = sim::lane_ops();
  const rng::StreamFactory factory(seed);
  std::vector<rng::RandomStream> streams;
  for (std::size_t i = 0; i < width; ++i) streams.push_back(factory.stream(i));
  std::vector<rng::RandomStream*> ptrs;
  for (auto& s : streams) ptrs.push_back(&s);
  std::vector<double> out(width), aux(width), ages(width), horizons(width);
  for (std::size_t i = 0; i < width; ++i) {
    ages[i] = g.mission_hours * (static_cast<double>(i) + 0.5) /
              static_cast<double>(width);
    horizons[i] = g.mission_hours;
  }
  // Laws the workload's group does not carry (rare_is has no latent or
  // scrub law) are probed with the Table 2 law of that kind.
  const raid::GroupConfig table2 = core::presets::base_case().to_group_config();
  const sim::SlotKernel own = sim::SlotKernel::compile(g.slots[0]);
  const sim::SlotKernel ref = sim::SlotKernel::compile(table2.slots[0]);
  auto law = [&](const sim::CompiledLaw& mine, const sim::CompiledLaw& fallback)
      -> const sim::CompiledLaw& {
    return mine.present() ? mine : fallback;
  };
  auto per_element_ns = [&](auto&& call) {
    return per_call_s(
               [&] {
                 call();
                 g_sink = g_sink + out[0];
               },
               z.probe_calls, z.probe_samples) /
           static_cast<double>(width) * 1e9;
  };
  const std::pair<const char*, const sim::CompiledLaw*> laws[] = {
      {"op", &law(own.op, ref.op)},
      {"restore", &law(own.restore, ref.restore)},
      {"latent", &law(own.latent, ref.latent)},
      {"scrub", &law(own.scrub, ref.scrub)}};
  for (const auto& [name, l] : laws) {
    report.metric(std::string("slot_kernel.sample_n_ns.") + name,
                  per_element_ns([&, l = l] {
                    l->sample_n(ptrs.data(), out.data(), width, ops);
                  }),
                  "ns");
  }
  report.metric("slot_kernel.sample_residual_n_ns.op", per_element_ns([&] {
                  own.op.sample_residual_n(ages.data(), ptrs.data(),
                                           out.data(), width, ops);
                }),
                "ns");
  const auto tilt = tilt_of(w.scenario());
  const sim::HazardTilt op_tilt(tilt ? tilt->op_theta : kRareTheta);
  report.metric("slot_kernel.sample_n_tilted_ns.op", per_element_ns([&] {
                  own.op.sample_n_tilted(op_tilt, horizons.data(), ptrs.data(),
                                         out.data(), aux.data(), width, ops);
                }),
                "ns");
  report.metric("rng.fill_uniform_ns", per_element_ns([&] {
                  ops.fill_uniform_open(ptrs.data(), out.data(), width);
                }),
                "ns");

  // One fused round sweep over a full lane of the group's slots, with op
  // timers drawn inside the mission so no lane settles.
  const std::size_t nslots = g.slots.size();
  std::vector<double> tnext(width * nslots);
  std::vector<std::uint8_t> kinds(width * nslots);
  for (std::size_t i = 0; i < tnext.size(); ++i) {
    tnext[i] = streams[i % width].uniform() * g.mission_hours * 0.5;
    kinds[i] = static_cast<std::uint8_t>(i % 4);
  }
  std::vector<std::uint32_t> all_lanes(width), lanes(width);
  for (std::size_t i = 0; i < width; ++i) {
    all_lanes[i] = static_cast<std::uint32_t>(i);
  }
  std::vector<sim::LaneEvent> bkt(5 * width);
  sim::LaneEvent* const buckets[4] = {&bkt[0], &bkt[width], &bkt[2 * width],
                                      &bkt[3 * width]};
  std::size_t counts[5] = {};
  report.metric("lane_ops.round_dispatch_ns", per_element_ns([&] {
                  lanes = all_lanes;
                  const std::size_t live = ops.round_dispatch(
                      tnext.data(), kinds.data(), nslots, lanes.data(), width,
                      g.mission_hours, nullptr, buckets, &bkt[4 * width],
                      counts);
                  out[0] = static_cast<double>(live + counts[0]);
                }),
                "ns");
}

/// Sweep-layer metrics on the workload's sweep (sweep_grid's own grid, a
/// restore-time sweep of the workload's group otherwise).
void probe_sweep(const Workload& w, std::uint64_t seed, unsigned threads,
                 int reps, const fs::path& dir, Report& report) {
  const auto cells = w.probe_cells();
  const auto conv = w.cell_options(seed);
  const fs::path manifest = dir / "manifest.json";
  auto run = [&](const fs::path& path, bool fresh,
                 fault::FaultInjector* fault = nullptr) {
    if (fresh) {
      fs::remove_all(dir);
      fs::create_directories(dir);
    }
    const auto t0 = Clock::now();
    const auto r =
        SweepWorkload::run_cells(cells, conv, threads, path, true, fault);
    if (!r.complete || r.degraded()) {
      throw std::runtime_error("probe sweep did not complete cleanly");
    }
    return elapsed(t0);
  };

  // Manifest I/O counts of one cold pass, through an empty-plan injector
  // (it only counts site hits; its per-trial checks make the pass slow, so
  // it is not timed).
  fault::FaultInjector counter{fault::FaultPlan{}};
  run(manifest, true, &counter);
  std::vector<double> with, without, resume, parse_ms;
  for (int i = 0; i < reps; ++i) {
    with.push_back(run(manifest, true));
    without.push_back(run("", false));
  }
  for (int i = 0; i < std::max(reps, 5); ++i) {
    resume.push_back(run(manifest, false));
  }
  std::string text;
  {
    std::ifstream in(manifest);
    std::ostringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }
  for (int i = 0; i < std::max(reps, 5); ++i) {
    const auto t0 = Clock::now();
    const auto doc = obs::parse_json(text);
    parse_ms.push_back(elapsed(t0) * 1e3);
    g_sink = g_sink + static_cast<double>(doc.get("cells").size());
  }
  fs::remove_all(dir);

  // Every completion rewrites the whole manifest: with header bytes H and
  // cell records C, the k-th write carries about H + k*C/N bytes.
  const auto n = static_cast<double>(cells.size());
  const auto bytes = static_cast<double>(text.size());
  const std::size_t cells_at = text.find("\"cells\":");
  const std::size_t quarantine_at = text.find("\"quarantined\":");
  const double records =
      cells_at != std::string::npos && quarantine_at != std::string::npos
          ? static_cast<double>(quarantine_at - cells_at)
          : bytes;
  const double header = bytes - records;
  const double cold = median(with);
  const double checkpoint = cold - median(without);
  report.metric("sweep.manifest_writes",
                static_cast<double>(counter.hits("manifest_write")), "count");
  report.metric("sweep.manifest_renames",
                static_cast<double>(counter.hits("manifest_rename")), "count");
  report.metric("sweep.manifest_reads",
                static_cast<double>(counter.hits("manifest_read")), "count");
  report.metric("sweep.manifest_bytes", bytes, "B");
  report.metric("sweep.checkpoint_bytes_computed",
                n * header + records * (n + 1.0) / 2.0, "B");
  report.metric("sweep.cold_s", cold, "s");
  report.metric("sweep.cells_per_s", n / cold, "1/s");
  report.metric("sweep.checkpoint_s", checkpoint, "s");
  report.metric("sweep.checkpoint_share", checkpoint / cold, "ratio");
  report.metric("sweep.resume_s", median(resume), "s");
  report.metric("obs.json_parse_ms", median(parse_ms), "ms");
}

// ---------------------------------------------------------------------------
// Entry point

constexpr std::string_view kWorkloads[] = {"converge_base", "rare_is",
                                           "sweep_grid", "fleet_spares"};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Sizes& sizes, unsigned threads,
                                        const fs::path& scratch) {
  if (name == "converge_base") {
    return std::make_unique<ConvergeWorkload>(sizes, threads, false);
  }
  if (name == "rare_is") {
    return std::make_unique<ConvergeWorkload>(sizes, threads, true);
  }
  if (name == "sweep_grid") {
    return std::make_unique<SweepWorkload>(sizes, threads, scratch / "sweep");
  }
  return std::make_unique<FleetWorkload>(sizes, threads);
}

/// Untraced run: set-up, warm-up, timed reps, a determinism rep, checks.
void run_untraced(Workload& w, const Args& args, const Sizes& z,
                  Report& report) {
  // Set-up is sampled once before every timed rep, so its samples spread
  // over the run like the reps do; a sample averages enough set-ups to
  // last ~20 ms. Each set-up rebuilds the same inputs the next rep uses.
  // (Sampled back to back before the first answer instead, the set-ups of
  // about a microsecond read fast or 1.7x slower from one process to the
  // next, so the median over runs could flip between the two.)
  const auto first = Clock::now();
  w.setup();
  const double once = elapsed(first);
  const auto per_sample =
      static_cast<std::size_t>(std::clamp(0.02 / std::max(once, 1e-9), 1.0,
                                          1000.0));
  std::vector<double> setup;
  auto sample_setup = [&] {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < per_sample; ++i) w.setup();
    setup.push_back(elapsed(t0) / static_cast<double>(per_sample));
  };

  const Answer warm = w.answer(rep_seed(args.seed, 0));
  std::uint64_t attempted = warm.attempted;
  std::uint64_t failed = warm.failed;
  std::vector<double> wall, cpu;
  const auto start = Clock::now();
  for (std::uint64_t rep = 1;
       elapsed(start) < args.seconds || wall.size() < std::size_t(z.min_reps);
       ++rep) {
    sample_setup();
    const Answer a = w.answer(rep_seed(args.seed, rep));
    wall.push_back(a.wall_s);
    cpu.push_back(a.cpu_s);
    attempted += a.attempted;
    failed += a.failed;
  }
  const double rss = peak_rss_mb();
  std::cout << "# reps wall_s/cpu_s:";
  for (std::size_t i = 0; i < wall.size(); ++i) {
    std::cout << ' ' << wall[i] << '/' << cpu[i];
  }
  std::cout << "\n";

  const Answer again = w.answer(rep_seed(args.seed, 0));
  attempted += again.attempted;
  failed += again.failed;
  report.attempts(attempted, failed);
  report.check("answers_without_failures", failed == 0,
               std::to_string(failed) + " of " + std::to_string(attempted));
  report.check("rerun_reproduces_digest", again.digest == warm.digest);
  w.check(args.seed, report);
  check_scalar_vs_batched(w, args.seed, z.check_trials, report);

  // Wall time to the answer is printed, not reported as a metric: on a host
  // whose hypervisor takes back 0-25% of the cores for half a minute at a
  // time, whole runs read up to 60% slow, so its run-to-run spread exceeds
  // any bound a regression gate could use. CPU time leaves stolen time out.
  std::cout << "# " << args.workload << ": " << wall.size()
            << " timed reps and set-up samples (medians), " << per_sample
            << " set-ups per sample; median wall_s " << median(wall) << "\n";
  report.metric("setup_s", median(setup), "s");
  report.metric("cpu_s", median(cpu), "s");
  report.metric("peak_rss_mb", rss, "MB");
}

/// Traced run: replay with spans, layer probes, per-layer metrics.
void run_traced(Workload& w, const Args& args, const Sizes& z,
                unsigned threads, const fs::path& scratch, Report& report) {
  w.setup();
  const Answer warm = w.answer(args.seed);
  std::uint64_t attempted = warm.attempted;
  std::uint64_t failed = warm.failed;

  // Alternate untraced answers and traced replays of the same inputs; the
  // difference of their medians is what tracing costs.
  Tracer tracer;
  std::vector<double> plain, traced;
  std::uint64_t trials = 0;
  for (int i = 0; i < z.trace_reps; ++i) {
    const Answer a = w.answer_as_replayed(args.seed);
    plain.push_back(a.wall_s);
    attempted += a.attempted;
    failed += a.failed;
    if (i + 1 < z.trace_reps) {
      traced.push_back(w.replay(args.seed, threads, &tracer, false).wall_s);
    }
  }
  // The last traced replay is also checked against the library's answer;
  // only its spans feed the runner metrics.
  tracer.clear();
  const ReplayOutcome last = w.replay(args.seed, threads, &tracer, true);
  traced.push_back(last.wall_s);
  trials = last.trials;
  report.check("replay_equals_library", last.matches, last.detail);
  const ReplayOutcome single = w.replay(args.seed, 1, nullptr, true);
  report.check("replay_equals_library_one_thread", single.matches,
               single.detail);
  report.attempts(attempted, failed);
  report.check("answers_without_failures", failed == 0);

  const auto batch_s = tracer.durations("runner");
  double busy = 0.0;
  for (const double s : batch_s) busy += s;
  report.metric("trace_overhead_frac",
                (median(traced) - median(plain)) / median(plain), "ratio");
  report.metric("runner.batches", static_cast<double>(batch_s.size()),
                "count");
  report.metric("runner.trials", static_cast<double>(trials), "count");
  report.metric("runner.batch_p50_ms", quantile(batch_s, 0.5) * 1e3, "ms");
  report.metric("runner.batch_p90_ms", quantile(batch_s, 0.9) * 1e3, "ms");
  report.metric("runner.busy_s", busy, "s");
  report.metric("runner.parallel_eff",
                single.wall_s / (static_cast<double>(threads) * last.wall_s),
                "ratio");
  report.metric("convergence.self_s", tracer.self_seconds("convergence"), "s");

  probe_engines(w, args.seed, z, threads, report);
  probe_kernels(w, args.seed, z, report);
  probe_sweep(w, args.seed, threads, z.trace_reps, scratch / "probe-sweep",
              report);

  if (!args.spans.empty()) {
    const fs::path dir = fs::path(args.spans).parent_path();
    if (!dir.empty()) fs::create_directories(dir);
    std::ofstream out(args.spans);
    tracer.append_to(out);
    if (!out.good()) throw std::runtime_error("cannot write " + args.spans);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 2;
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                args.workload) == std::end(kWorkloads)) {
    std::cerr << "bench_e2e: unknown workload '" << args.workload
              << "' (converge_base, rare_is, sweep_grid, fleet_spares)\n";
    return 2;
  }
  const Sizes& sizes = args.smoke ? kSmokeSizes : kFullSizes;
  // Closed loop in one process: at most four pool workers, never more
  // than the host has cores.
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  const fs::path scratch = args.scratch;
  Report report;
  int status = 0;
  try {
    fs::create_directories(scratch);
    auto workload = make_workload(args.workload, sizes, threads, scratch);
    std::cout << "# workload " << args.workload << ", seed " << args.seed
              << ", " << threads << " threads, isa "
              << util::isa_name(sim::lane_ops().isa)
              << (args.smoke ? ", smoke sizes" : "") << "\n";
    if (args.trace) {
      run_traced(*workload, args, sizes, threads, scratch, report);
    } else {
      run_untraced(*workload, args, sizes, report);
    }
  } catch (const std::exception& e) {
    report.check("no_exception", false, e.what());
    status = 1;
  }
  std::error_code ignored;
  fs::remove_all(scratch, ignored);
  if (!report.correct()) status = 1;
  if (!args.out.empty()) {
    try {
      report.write_file(args.out, args);
    } catch (const std::exception& e) {
      std::cerr << "bench_e2e: " << e.what() << "\n";
      status = 1;
    }
  }
  report.print(std::cout);
  return status;
}
