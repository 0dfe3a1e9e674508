#include "bench_support.h"

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>

#include "obs/json_writer.h"
#include "obs/run_telemetry.h"
#include "report/ascii_chart.h"
#include "report/table.h"
#include "util/error.h"
#include "util/strings.h"

namespace raidrel::bench {

namespace {

// One telemetry sink per Monte Carlo run the bench performs, written out
// as a single manifest document at exit. A deque keeps the sinks'
// addresses stable while RunOptions point at them.
std::deque<obs::RunTelemetry> g_run_sinks;
std::string g_manifest_path;

void write_bench_manifest() {
  if (g_manifest_path.empty()) return;
  std::size_t runs = 0;
  for (const auto& t : g_run_sinks) {
    if (!t.batches().empty()) ++runs;
  }
  if (runs == 0) return;
  std::ofstream out(g_manifest_path);
  if (!out) {
    std::cerr << "cannot write run manifest: " << g_manifest_path << "\n";
    return;
  }
  obs::JsonWriter w(out);
  w.begin_object();
  w.kv("schema", "raidrel-bench-manifest/1");
  w.key("runs");
  w.begin_array();
  for (const auto& t : g_run_sinks) {
    if (!t.batches().empty()) t.write_json(w);
  }
  w.end_array();
  w.end_object();
  out << '\n';
  std::cout << "run manifest (" << runs << " run" << (runs == 1 ? "" : "s")
            << "): " << g_manifest_path << "\n";
}

std::string default_manifest_path(int argc, char** argv) {
  std::string name = argc > 0 && argv[0] != nullptr ? argv[0] : "bench";
  const std::size_t slash = name.find_last_of("/\\");
  if (slash != std::string::npos) name = name.substr(slash + 1);
  return name + ".manifest.json";
}

}  // namespace

sim::RunOptions BenchOptions::run_options() const {
  sim::RunOptions run{.trials = trials, .seed = seed, .threads = threads,
                      .bucket_hours = bucket_hours};
  if (!manifest_path.empty()) {
    run.telemetry = &g_run_sinks.emplace_back();
  }
  return run;
}

BenchOptions parse_options(int argc, char** argv, std::size_t default_trials,
                           std::initializer_list<std::string_view> extra_flags) {
  const util::CliArgs args(argc, argv);
  BenchOptions opt;
  try {
    // A misspelled flag ("--trails") must not run the study at defaults.
    std::vector<std::string_view> known{
        "trials",   "seed", "threads",     "bucket-hours",
        "no-chart", "csv",  "no-manifest", "manifest"};
    known.insert(known.end(), extra_flags.begin(), extra_flags.end());
    args.reject_unknown_flags(known);
    // Bounded to the destination: "--trials -1" must not wrap into an
    // 18-quintillion-trial run, "--threads 4294967297" not into 1 worker,
    // and "--threads 100000" not into 100,000 OS threads.
    opt.trials = args.get_int_in<std::size_t>("trials", default_trials, 1);
    opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 20070625));
    opt.threads = args.get_int_in<unsigned>("threads", 0, 0,
                                             util::kMaxCliThreads);
    opt.bucket_hours = args.get_double("bucket-hours", 730.0);
  } catch (const ModelError& e) {
    // A bad flag or value is a usage error, exit 2 as in the examples; no
    // run has started and no manifest writer is registered yet.
    std::cerr << "error: " << e.what() << "\n";
    std::exit(2);
  }
  opt.chart = !args.get_bool("no-chart", false);
  opt.csv = args.get_bool("csv", false);
  if (!args.get_bool("no-manifest", false)) {
    opt.manifest_path =
        args.get_string("manifest", default_manifest_path(argc, argv));
  }
  g_manifest_path = opt.manifest_path;
  static const bool registered = [] {
    std::atexit(write_bench_manifest);
    return true;
  }();
  (void)registered;
  return opt;
}

std::string format_interval(double lower, double upper, int digits) {
  // Appended piece by piece: GCC 12 flags `"[" + std::string&&` with a
  // false -Wrestrict in Release builds.
  std::string out = "[";
  out += util::format_fixed(lower, digits);
  out += ", ";
  out += util::format_fixed(upper, digits);
  out += ']';
  return out;
}

void print_header(const std::string& experiment_id,
                  const std::string& paper_claim, const BenchOptions& opt) {
  std::cout << "================================================================\n"
            << experiment_id << "\n"
            << "Paper reference: " << paper_claim << "\n"
            << "Monte Carlo: " << opt.trials << " group-missions, seed "
            << opt.seed << "\n"
            << "================================================================\n";
}

Series cumulative_series(const std::string& name,
                         const sim::RunResult& result, sim::Estimator est) {
  Series s;
  s.name = name;
  s.values = result.cumulative_ddfs_per_1000(est);
  s.times.reserve(s.values.size());
  for (std::size_t b = 0; b < s.values.size(); ++b) {
    s.times.push_back(result.bucket_edge(b));
  }
  return s;
}

Series rocof_series(const std::string& name, const sim::RunResult& result) {
  Series s;
  s.name = name;
  s.values = result.rocof_per_1000();
  s.times.reserve(s.values.size());
  for (std::size_t b = 0; b < s.values.size(); ++b) {
    s.times.push_back(result.bucket_edge(b));
  }
  return s;
}

namespace {

double value_at(const Series& s, double t) {
  // Series are sampled on identical bucket grids in practice; find the
  // first edge >= t.
  for (std::size_t i = 0; i < s.times.size(); ++i) {
    if (s.times[i] >= t - 1e-9) return s.values[i];
  }
  return s.values.back();
}

}  // namespace

void write_perf_json(std::ostream& out,
                     const std::vector<PerfRecord>& records) {
  obs::JsonWriter w(out);
  w.begin_object();
  w.kv("schema", "raidrel-bench-perf/3");
  w.key("benchmarks");
  w.begin_array();
  for (const auto& r : records) {
    w.begin_object();
    w.kv("name", std::string_view(r.name));
    w.kv("real_time_ns", r.real_time_ns);
    // v2: microbenchmarks that never report items/s omit the field
    // instead of writing a `0` that reads like a measurement.
    if (r.trials_per_second != 0.0) {
      w.kv("trials_per_second", r.trials_per_second);
    }
    w.kv("iterations", r.iterations);
    if (r.config_digest != 0) {
      w.kv("config_digest", r.config_digest);
      w.kv("threads", r.threads);
    }
    if (r.batch_width != 0) {
      w.kv("batch_width", static_cast<std::uint64_t>(r.batch_width));
    }
    // v3: engine benchmarks carry the lane-backend identity; records
    // without it (microbenchmarks, older documents) compare as wildcard.
    if (!r.isa.empty()) w.kv("isa", std::string_view(r.isa));
    if (!r.math_tier.empty()) {
      w.kv("math_tier", std::string_view(r.math_tier));
    }
    if (!r.estimator.empty()) {
      w.kv("estimator", std::string_view(r.estimator));
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
}

void print_series_table(const std::vector<Series>& series,
                        const BenchOptions& opt, const std::string& x_label,
                        const std::string& y_label) {
  if (series.empty()) return;
  std::vector<std::string> headers{"year"};
  for (const auto& s : series) headers.push_back(s.name);
  report::Table table(std::move(headers));
  const double horizon = series.front().times.back();
  const int years = static_cast<int>(horizon / 8760.0 + 0.5);
  for (int y = 1; y <= years; ++y) {
    std::vector<std::string> row{std::to_string(y)};
    for (const auto& s : series) {
      row.push_back(util::format_general(value_at(s, y * 8760.0), 4));
    }
    table.add_row(std::move(row));
  }
  table.print_text(std::cout);
  if (opt.csv) {
    std::cout << "\nCSV:\n";
    table.print_csv(std::cout);
  }
  if (opt.chart) {
    static constexpr char kMarkers[] = "*o+x#@%&";
    report::AsciiChart chart({.width = 72, .height = 20, .x_label = x_label,
                              .y_label = y_label});
    for (std::size_t i = 0; i < series.size(); ++i) {
      chart.add_series(series[i].name, series[i].times, series[i].values,
                       kMarkers[i % (sizeof(kMarkers) - 1)]);
    }
    std::cout << '\n';
    chart.print(std::cout);
  }
  std::cout << std::endl;
}

}  // namespace raidrel::bench
