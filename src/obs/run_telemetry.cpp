#include "obs/run_telemetry.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/json_writer.h"
#include "util/error.h"

namespace raidrel::obs {

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t seed) noexcept {
  std::uint64_t h = seed;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

WorkerStats& WorkerStats::operator+=(const WorkerStats& o) noexcept {
  trials += o.trials;
  ddfs += o.ddfs;
  op_failures += o.op_failures;
  latent_defects += o.latent_defects;
  scrubs_completed += o.scrubs_completed;
  restores_completed += o.restores_completed;
  spare_arrivals += o.spare_arrivals;
  wall_seconds += o.wall_seconds;
  lane_rounds += o.lane_rounds;
  active_lane_rounds += o.active_lane_rounds;
  capacity_lane_rounds += o.capacity_lane_rounds;
  for (int d = 0; d < 10; ++d) occupancy_hist[d] += o.occupancy_hist[d];
  if (o.lanes_settled > 0) {
    settle_rounds_min = lanes_settled == 0
                            ? o.settle_rounds_min
                            : std::min(settle_rounds_min, o.settle_rounds_min);
    settle_rounds_max = std::max(settle_rounds_max, o.settle_rounds_max);
  }
  lanes_settled += o.lanes_settled;
  settle_rounds_sum += o.settle_rounds_sum;
  return *this;
}

void RunTelemetry::configure(std::uint64_t master_seed,
                             std::uint64_t config_digest, unsigned threads,
                             std::size_t batch_width, std::string_view isa,
                             std::string_view math_tier) {
  if (configured_) {
    RAIDREL_REQUIRE(master_seed == master_seed_ &&
                        config_digest == config_digest_,
                    "one RunTelemetry sink accumulates one logical run: "
                    "batches must share the master seed and configuration");
  }
  master_seed_ = master_seed;
  config_digest_ = config_digest;
  threads_ = threads;
  batch_width_ = batch_width;
  isa_ = isa;
  math_tier_ = math_tier;
  configured_ = true;
}

void RunTelemetry::set_estimator(std::string_view estimator,
                                 std::string_view reason) {
  estimator_ = estimator;
  estimator_reason_ = reason;
}

void RunTelemetry::add_worker(const WorkerStats& ws) {
  const std::lock_guard<std::mutex> lock(mutex_);
  workers_.push_back(ws);
}

void RunTelemetry::add_batch(const BatchStats& bs) { batches_.push_back(bs); }

void RunTelemetry::annotate_last_batch(double relative_sem,
                                       double absolute_sem) {
  RAIDREL_REQUIRE(!batches_.empty(), "no batch recorded yet");
  batches_.back().relative_sem = relative_sem;
  batches_.back().absolute_sem = absolute_sem;
}

void RunTelemetry::set_importance_sampling(
    const ImportanceSamplingStats& is) {
  importance_sampling_ = is;
  has_importance_sampling_ = true;
}

void RunTelemetry::set_stop_reason(const StopStats& stop) {
  stop_ = stop;
  has_stop_ = true;
}

void RunTelemetry::add_fault_event(FaultEvent event) {
  const std::lock_guard<std::mutex> lock(mutex_);
  fault_events_.push_back(std::move(event));
}

std::vector<FaultEvent> RunTelemetry::fault_events() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return fault_events_;
}

WorkerStats RunTelemetry::totals() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  WorkerStats sum;
  for (const auto& w : workers_) sum += w;
  return sum;
}

double RunTelemetry::wall_seconds() const {
  double s = 0.0;
  for (const auto& b : batches_) s += b.wall_seconds;
  return s;
}

double RunTelemetry::trials_per_second() const {
  const double wall = wall_seconds();
  if (wall <= 0.0) return 0.0;
  return static_cast<double>(totals().trials) / wall;
}

namespace {

void write_counters(JsonWriter& w, const WorkerStats& s) {
  w.kv("trials", s.trials);
  w.kv("ddfs", s.ddfs);
  w.kv("op_failures", s.op_failures);
  w.kv("latent_defects", s.latent_defects);
  w.kv("scrubs_completed", s.scrubs_completed);
  w.kv("restores_completed", s.restores_completed);
  w.kv("spare_arrivals", s.spare_arrivals);
}

}  // namespace

void RunTelemetry::write_json(std::ostream& os) const {
  JsonWriter w(os);
  write_json(w);
  os << '\n';
}

void RunTelemetry::write_json(JsonWriter& w) const {
  char digest_hex[19];
  std::snprintf(digest_hex, sizeof digest_hex, "0x%016llx",
                static_cast<unsigned long long>(config_digest_));

  const WorkerStats sum = totals();
  w.begin_object();
  w.kv("schema", "raidrel-run-manifest/1");
  w.kv("master_seed", master_seed_);
  w.kv("config_digest", digest_hex);
  w.kv("threads", threads_);
  w.kv("batch_width", static_cast<std::uint64_t>(batch_width_));
  // Additive: only batched runs carry the lane-backend identity, so
  // scalar-run manifests keep their exact bytes.
  if (!isa_.empty()) w.kv("isa", std::string_view(isa_));
  if (!math_tier_.empty()) {
    w.kv("math_tier", std::string_view(math_tier_));
  }
  if (!estimator_.empty()) {
    w.kv("estimator", std::string_view(estimator_));
    if (!estimator_reason_.empty()) {
      w.kv("estimator_reason", std::string_view(estimator_reason_));
    }
  }
  w.kv("wall_seconds", wall_seconds());
  w.kv("trials_per_second", trials_per_second());

  w.key("totals");
  w.begin_object();
  write_counters(w, sum);
  w.end_object();

  // Additive: only batched runs (which execute dispatch rounds) carry a
  // "lane_occupancy" object, so scalar manifests keep their exact bytes.
  // The profile answers "how full were the lanes": mean_active_ratio is
  // the fraction of lane slots doing useful work per round, the decile
  // histogram shows how quickly lanes drain, and the settle stats bound
  // how long a lane stays resident (docs/MODEL.md §17).
  if (sum.lane_rounds > 0) {
    w.key("lane_occupancy");
    w.begin_object();
    w.kv("rounds", sum.lane_rounds);
    w.kv("active_lane_rounds", sum.active_lane_rounds);
    w.kv("capacity_lane_rounds", sum.capacity_lane_rounds);
    w.kv("mean_active_ratio",
         sum.capacity_lane_rounds > 0
             ? static_cast<double>(sum.active_lane_rounds) /
                   static_cast<double>(sum.capacity_lane_rounds)
             : 0.0);
    w.key("occupancy_deciles");
    w.begin_array();
    for (const std::uint64_t d : sum.occupancy_hist) w.value(d);
    w.end_array();
    w.kv("lanes_settled", sum.lanes_settled);
    w.kv("settle_rounds_mean",
         sum.lanes_settled > 0
             ? static_cast<double>(sum.settle_rounds_sum) /
                   static_cast<double>(sum.lanes_settled)
             : 0.0);
    w.kv("settle_rounds_min", sum.settle_rounds_min);
    w.kv("settle_rounds_max", sum.settle_rounds_max);
    w.end_object();
  }

  w.key("batches");
  w.begin_array();
  for (const auto& b : batches_) {
    w.begin_object();
    w.kv("first_trial_index", b.first_trial_index);
    w.kv("trials", b.trials);
    w.kv("wall_seconds", b.wall_seconds);
    w.kv("trials_per_second", b.trials_per_second);
    if (b.relative_sem >= 0.0 || b.absolute_sem >= 0.0) {
      w.kv("relative_sem", b.relative_sem);
      w.kv("absolute_sem", b.absolute_sem);
    }
    w.end_object();
  }
  w.end_array();

  w.key("workers");
  w.begin_array();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& ws : workers_) {
      w.begin_object();
      write_counters(w, ws);
      w.kv("wall_seconds", ws.wall_seconds);
      w.end_object();
    }
  }
  w.end_array();

  // Additive: only tilted runs carry an "importance_sampling" object, so
  // untilted manifests keep their exact bytes.
  if (has_importance_sampling_) {
    w.key("importance_sampling");
    w.begin_object();
    w.kv("op_theta", importance_sampling_.op_theta);
    w.kv("ld_theta", importance_sampling_.ld_theta);
    w.kv("ess", importance_sampling_.ess);
    w.kv("weight_sum", importance_sampling_.weight_sum);
    w.kv("max_weight", importance_sampling_.max_weight);
    w.end_object();
  }

  // Additive: only runs that actually saw fault-tolerance events carry a
  // "faults" array, so clean manifests are byte-identical to schema 1
  // output from before the fault layer existed.
  const std::vector<FaultEvent> faults = fault_events();
  if (!faults.empty()) {
    w.key("faults");
    w.begin_array();
    for (const auto& e : faults) {
      w.begin_object();
      w.kv("site", std::string_view(e.site));
      w.kv("kind", std::string_view(e.kind));
      w.kv("attempt", e.attempt);
      w.kv("detail", std::string_view(e.detail));
      w.end_object();
    }
    w.end_array();
  }

  // Additive: only runs whose driver recorded a stop reason carry it —
  // and only cancelled/deadlined ones carry the latency diagnostics.
  if (has_stop_) {
    w.kv("stop_reason", std::string_view(stop_.stop_reason));
    if (stop_.cancel_latency_seconds >= 0.0) {
      w.key("cancellation");
      w.begin_object();
      w.kv("polls", stop_.cancel_polls);
      w.kv("latency_seconds", stop_.cancel_latency_seconds);
      w.end_object();
    }
  }

  w.end_object();
}

std::string RunTelemetry::json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

}  // namespace raidrel::obs
