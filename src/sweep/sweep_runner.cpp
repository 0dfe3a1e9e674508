#include "sweep/sweep_runner.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <system_error>
#include <thread>
#include <unordered_map>

#include "obs/json_reader.h"
#include "obs/json_writer.h"
#include "obs/run_telemetry.h"
#include "sim/latent_credit.h"
#include "sim/runner.h"
#include "sim/thread_pool.h"
#include "util/error.h"

namespace raidrel::sweep {

namespace {

constexpr const char* kSchema = "raidrel-sweep-manifest/3";

// Attempts for each cache read, journal append and compaction. Read
// exhaustion falls back to an empty cache (resimulate); append exhaustion
// stops journaling for the rest of the sweep; compaction exhaustion leaves
// the journal in place for the next run. All are recorded as io_errors,
// and none stops the sweep.
constexpr unsigned kManifestAttempts = 3;
// Attempts for the worker fan-out itself (a worker that dies before
// draining the cell queue, e.g. an armed pool_task site).
constexpr unsigned kSweepAttempts = 3;

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

}  // namespace

std::uint64_t cell_cache_key(std::uint64_t config_digest,
                             const sim::ConvergenceOptions& options,
                             bool latent_credit) {
  std::string canon;
  canon.reserve(192);
  canon += "cell{config=";
  append_u64(canon, config_digest);
  canon += ";seed=";
  append_u64(canon, options.seed);
  canon += ";rel=";
  append_double(canon, options.target_relative_sem);
  canon += ";abs=";
  append_double(canon, options.target_absolute_sem);
  canon += ";zero=";
  append_double(canon, options.zero_ddf_upper_bound);
  canon += ";batch=";
  append_u64(canon, options.batch_trials);
  canon += ";min=";
  append_u64(canon, options.min_trials);
  canon += ";max=";
  append_u64(canon, options.max_trials);
  canon += ";bucket=";
  append_double(canon, options.bucket_hours);
  canon += ";ess=";
  append_double(canon, options.target_ess);
  // Two cells identical but for the tilt share a config digest, so the
  // op tilt MUST feed the key (θ = 1 when none is engaged).
  canon += ";tilt=";
  append_double(canon, options.tilt ? options.tilt->op_theta : 1.0);
  // The math tier can change result bits (sim/lane_ops.h); batch_width
  // never does, so it stays out.
  canon += ";mtier=";
  canon += sim::math_tier_name(options.math_tier);
  canon += ";estimator=";
  canon += latent_credit ? sim::kLatentCreditEstimator : sim::kEventsEstimator;
  canon += '}';
  return obs::fnv1a64(canon);
}

std::uint64_t cell_result_digest(const CellResult& r) {
  std::string canon;
  canon.reserve(256);
  canon += "result{trials=";
  append_u64(canon, r.trials);
  canon += ";batches=";
  append_u64(canon, r.batches);
  canon += ";converged=";
  canon += r.converged ? '1' : '0';
  canon += ";stop=";
  canon += r.stop;
  canon += ";total=";
  append_double(canon, r.total_ddfs_per_1000);
  canon += ";sem=";
  append_double(canon, r.sem_per_1000);
  canon += ";rel=";
  append_double(canon, r.relative_sem);
  canon += ";year1=";
  append_double(canon, r.year1_ddfs_per_1000);
  canon += ";dop=";
  append_double(canon, r.double_op_per_1000);
  canon += ";lto=";
  append_double(canon, r.latent_then_op_per_1000);
  canon += ";opf=";
  append_u64(canon, r.op_failures);
  canon += ";ld=";
  append_u64(canon, r.latent_defects);
  canon += ";scrubs=";
  append_u64(canon, r.scrubs_completed);
  canon += ";restores=";
  append_u64(canon, r.restores_completed);
  canon += ";optilt=";
  append_double(canon, r.op_tilt);
  canon += ";ess=";
  append_double(canon, r.ess);
  canon += ";rebuild=";
  canon += r.rebuild;
  canon += ";estimator=";
  canon += r.estimator;
  canon += '}';
  return obs::fnv1a64(canon);
}

namespace {

std::string error_site(const std::exception& e, const char* fallback) {
  if (const auto* s = dynamic_cast<const SiteError*>(&e)) return s->site();
  return fallback;
}

bool is_injected_fault(const std::exception& e) noexcept {
  return dynamic_cast<const fault::InjectedFault*>(&e) != nullptr;
}

/// Deterministic exponential backoff: attempt k sleeps base * 2^(k-1) ms.
/// No jitter — the retry schedule must replay identically run to run.
void retry_backoff(double base_ms, unsigned attempt) {
  if (base_ms <= 0.0) return;
  const double ms =
      base_ms * static_cast<double>(1ULL << (attempt > 0 ? attempt - 1 : 0));
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// Why a cell runs on the event path (sim/latent_credit.h); nullptr when
/// it is latent-credited. A cell whose scenario cannot be materialized is
/// left to simulate_cell, which fails and quarantines it.
const char* cell_exclusion(const SweepCell& cell,
                           const sim::ConvergenceOptions& options) {
  try {
    return sim::latent_credit_exclusion(cell.scenario.to_group_config(),
                                        options.tilt);
  } catch (const std::exception&) {
    return "invalid configuration";
  }
}

/// Per-cell effective convergence options: the shared base plus the
/// cell's own importance-sampling tilt (an estimation knob carried on the
/// scenario; see core/scenario.h). The tilt reaches cell_cache_key
/// through these options, so two cells identical but for the tilt —
/// which share a config digest by design — can never collide in the
/// cache. A unit scenario tilt leaves the base options untouched.
sim::ConvergenceOptions cell_options(const SweepCell& cell,
                                     const sim::ConvergenceOptions& base) {
  sim::ConvergenceOptions opt = base;
  if (cell.scenario.op_tilt != 1.0 || cell.scenario.ld_tilt != 1.0) {
    opt.tilt = sim::TiltSpec{cell.scenario.op_tilt, cell.scenario.ld_tilt};
  }
  return opt;
}

/// The cell's cache key under `base` (its own options, its estimator).
std::uint64_t cell_key(const SweepCell& cell,
                       const sim::ConvergenceOptions& base) {
  const sim::ConvergenceOptions opt = cell_options(cell, base);
  return cell_cache_key(cell.config_digest, opt,
                        cell_exclusion(cell, opt) == nullptr);
}

/// Record which estimator a cell's numbers come from, and why not the
/// latent credit when it is out of scope.
void set_estimator(CellResult& r, const char* exclusion) {
  r.estimator = exclusion ? sim::kEventsEstimator : sim::kLatentCreditEstimator;
  r.estimator_reason = exclusion ? exclusion : "";
}

void note_event(obs::RunTelemetry* telemetry, std::string site,
                const char* kind, std::uint64_t attempt, std::string detail) {
  if (telemetry == nullptr) return;
  telemetry->add_fault_event(
      {std::move(site), kind, attempt, std::move(detail)});
}

/// The result fields of one cell entry, as write_cell wrote them — the one
/// parser for manifest entries and journal records. Throws ModelError on a
/// missing or mistyped field; the caller checks the result digest.
CellResult parse_cell(const obs::JsonValue& entry) {
  CellResult r;
  r.config_digest = entry.get("config_digest").as_uint64();
  r.cell_key = entry.get("cell_key").as_uint64();
  r.trials = entry.get("trials").as_uint64();
  r.batches = entry.get("batches").as_uint64();
  r.converged = entry.get("converged").as_bool();
  r.stop = entry.get("stop").as_string();
  r.total_ddfs_per_1000 = entry.get("total_ddfs_per_1000").as_double();
  r.sem_per_1000 = entry.get("sem_per_1000").as_double();
  r.relative_sem = entry.get("relative_sem").as_double();
  r.year1_ddfs_per_1000 = entry.get("year1_ddfs_per_1000").as_double();
  r.double_op_per_1000 = entry.get("double_op_per_1000").as_double();
  r.latent_then_op_per_1000 = entry.get("latent_then_op_per_1000").as_double();
  r.op_failures = entry.get("op_failures").as_uint64();
  r.latent_defects = entry.get("latent_defects").as_uint64();
  r.scrubs_completed = entry.get("scrubs_completed").as_uint64();
  r.restores_completed = entry.get("restores_completed").as_uint64();
  r.op_tilt = entry.get("op_tilt").as_double();
  r.ess = entry.get("ess").as_double();
  r.rebuild = entry.get("rebuild").as_string();
  r.estimator = entry.get("estimator").as_string();
  r.estimator_reason = entry.get("estimator_reason").as_string();
  r.result_digest = entry.get("result_digest").as_uint64();
  r.from_cache = true;
  return r;
}

std::string journal_path(const std::string& manifest) {
  return manifest + ".journal";
}

constexpr std::size_t kChecksumDigits = 16;

/// The fnv1a64 of a record's JSON as the 16 lowercase hex digits that
/// lead its journal line.
std::string record_checksum(std::string_view json) {
  char sum[kChecksumDigits + 1];
  std::snprintf(sum, sizeof sum, "%016llx",
                static_cast<unsigned long long>(obs::fnv1a64(json)));
  return std::string(sum, kChecksumDigits);
}

/// The cell a journal line (newline stripped) carries, or nullopt when the
/// line is damaged: a bad checksum, bad JSON, a missing field, or a result
/// digest that does not match.
std::optional<CellResult> parse_record(std::string_view line) {
  if (line.size() <= kChecksumDigits + 1 || line[kChecksumDigits] != ' ') {
    return std::nullopt;
  }
  const std::string_view body = line.substr(kChecksumDigits + 1);
  if (line.substr(0, kChecksumDigits) != record_checksum(body)) {
    return std::nullopt;
  }
  try {
    CellResult r = parse_cell(obs::parse_json(body));
    if (cell_result_digest(r) != r.result_digest) return std::nullopt;
    return r;
  } catch (const ModelError&) {
    return std::nullopt;
  }
}

std::optional<std::string> read_whole_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// What a resume starts from: verified results keyed by cell key, and how
/// much of the journal replayed.
struct LoadedCache {
  std::unordered_map<std::uint64_t, CellResult> cells;
  std::size_t replayed = 0;         ///< journal records accepted
  std::uint64_t journal_bytes = 0;  ///< length of the journal's valid prefix
};

/// The manifest's verified entries, keyed by cell key.
std::unordered_map<std::uint64_t, CellResult> load_manifest(
    const std::string& text, obs::RunTelemetry* telemetry) {
  std::unordered_map<std::uint64_t, CellResult> cache;
  obs::JsonValue root;
  try {
    root = obs::parse_json(text);
  } catch (const ModelError& e) {
    // Corrupt or truncated manifest: resimulate everything.
    note_event(telemetry, "manifest_read", "cache-reject", 0, e.what());
    return cache;
  }
  try {
    if (!root.is_object()) return cache;
    const obs::JsonValue* schema = root.find("schema");
    if (schema == nullptr || schema->as_string() != kSchema) return cache;
    for (const auto& entry : root.get("cells").items()) {
      CellResult r = parse_cell(entry);
      // A tampered or bit-rotted entry must not masquerade as a result.
      if (cell_result_digest(r) != r.result_digest) {
        note_event(telemetry, "manifest_read", "cache-reject", 0,
                   "result digest mismatch for cell_key " +
                       std::to_string(r.cell_key));
        continue;
      }
      cache.emplace(r.cell_key, std::move(r));
    }
  } catch (const ModelError& e) {
    // A malformed entry invalidates the whole manifest: partial trust in a
    // manifest is worse than an honest resimulation.
    cache.clear();
    note_event(telemetry, "manifest_read", "cache-reject", 0, e.what());
  }
  return cache;
}

/// The cache on disk: the manifest's entries, then the journal's records
/// replayed in order up to the first torn or damaged line. Identity fields
/// (index, label, coordinates, config digest) always come from the
/// *current* expansion, so relabeling an axis never stales the cache. Quarantined entries are
/// deliberately not loaded: a resumed sweep gives every previously failed
/// cell a fresh chance.
LoadedCache load_cache(const std::string& path,
                       obs::RunTelemetry* telemetry) {
  LoadedCache out;
  if (const auto text = read_whole_file(path)) {
    out.cells = load_manifest(*text, telemetry);
  }
  const auto journal = read_whole_file(journal_path(path));
  if (!journal) return out;
  const std::string_view text(*journal);
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::optional<CellResult> r;
    if (eol != std::string_view::npos) {
      r = parse_record(text.substr(pos, eol - pos));
    }
    if (!r) {
      // A torn tail is what a crash mid-append leaves; anything after a
      // bad line is not trusted either.
      note_event(telemetry, "manifest_read", "cache-reject", 0,
                 std::string(eol == std::string_view::npos ? "torn"
                                                           : "damaged") +
                     " journal record at byte " + std::to_string(pos) +
                     "; replay stops there");
      break;
    }
    out.cells.insert_or_assign(r->cell_key, std::move(*r));
    ++out.replayed;
    pos = eol + 1;
  }
  out.journal_bytes = pos;
  return out;
}

void write_cell(obs::JsonWriter& w, const CellResult& r) {
  w.begin_object();
  w.kv("index", static_cast<std::uint64_t>(r.index));
  w.kv("label", std::string_view(r.label));
  w.key("coordinates");
  w.begin_object();
  for (const auto& [axis, value] : r.coordinates) {
    w.kv(std::string_view(axis), std::string_view(value));
  }
  w.end_object();
  w.kv("config_digest", r.config_digest);
  w.kv("cell_key", r.cell_key);
  w.kv("trials", r.trials);
  w.kv("batches", r.batches);
  w.kv("converged", r.converged);
  w.kv("stop", std::string_view(r.stop));
  w.kv("total_ddfs_per_1000", r.total_ddfs_per_1000);
  w.kv("sem_per_1000", r.sem_per_1000);
  w.kv("relative_sem", r.relative_sem);
  w.kv("year1_ddfs_per_1000", r.year1_ddfs_per_1000);
  w.kv("double_op_per_1000", r.double_op_per_1000);
  w.kv("latent_then_op_per_1000", r.latent_then_op_per_1000);
  w.kv("op_failures", r.op_failures);
  w.kv("latent_defects", r.latent_defects);
  w.kv("scrubs_completed", r.scrubs_completed);
  w.kv("restores_completed", r.restores_completed);
  w.kv("op_tilt", r.op_tilt);
  w.kv("ess", r.ess);
  w.kv("rebuild", std::string_view(r.rebuild));
  w.kv("estimator", std::string_view(r.estimator));
  w.kv("estimator_reason", std::string_view(r.estimator_reason));
  w.kv("result_digest", r.result_digest);
  w.end_object();
}

/// One journal record: the checksum, a space, the cell's compact JSON, a
/// newline.
std::string journal_record(const CellResult& r) {
  std::ostringstream json;
  {
    obs::JsonWriter w(json, 0);
    write_cell(w, r);
  }
  const std::string body = json.str();
  return record_checksum(body) + ' ' + body + '\n';
}

std::string errno_message() {
  return std::error_code(errno, std::generic_category()).message();
}

/// Write all of `bytes` at `offset`, across short writes and EINTR.
bool write_at(int fd, std::string_view bytes, off_t offset) {
  while (!bytes.empty()) {
    const ssize_t n = ::pwrite(fd, bytes.data(), bytes.size(), offset);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
    offset += n;
  }
  return true;
}

void create_parent_directory(const std::string& path, const char* site) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (parent.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  if (ec) {
    throw SiteError(site, "cannot create manifest directory " +
                              parent.string() + ": " + ec.message());
  }
}

/// fsync the directory holding `path`, so that a file created or renamed
/// there survives a crash.
bool sync_parent_directory(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const int fd = ::open(parent.empty() ? "." : parent.c_str(),
                        O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  return synced;
}

/// The append-only completion log beside the manifest. Every record is
/// fdatasynced before append() returns, so a reported completion survives
/// a crash; a failed append is cut back off the file.
class Journal {
 public:
  /// `keep` is the length of the valid prefix a resume replayed; whatever
  /// follows it is dropped when the journal is first opened.
  Journal(std::string path, std::uint64_t keep)
      : path_(std::move(path)), end_(keep) {}
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  ~Journal() { close(); }

  void append(std::string_view record, fault::FaultInjector* fault) {
    if (fd_ < 0) open();
    const auto at = static_cast<off_t>(end_);
    try {
      if (!write_at(fd_, record, at)) {
        throw SiteError("journal_append", "cannot append to sweep journal " +
                                              path_ + ": " + errno_message());
      }
      if (fault != nullptr) fault->check("journal_append", path_);
      if (fault != nullptr) fault->check("journal_sync", path_);
      if (::fdatasync(fd_) != 0) {
        throw SiteError("journal_sync", "cannot sync sweep journal " + path_ +
                                            ": " + errno_message());
      }
    } catch (...) {
      // Cut the unsynced bytes off, so neither the retry nor a resume
      // after a crash sees a record whose completion was never reported.
      // If the cut fails, the next append reopens the file and cuts again.
      if (::ftruncate(fd_, at) != 0) close();
      throw;
    }
    end_ += record.size();
  }

  /// After a compaction every record is in the manifest: drop the file.
  /// A removal that does not happen, or is lost in a crash, only leaves
  /// records that duplicate the manifest.
  void clear() {
    close();
    std::remove(path_.c_str());
    end_ = 0;
  }

 private:
  void open() {
    create_parent_directory(path_, "journal_append");
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0666);
    if (fd_ < 0) {
      throw SiteError("journal_append", "cannot open sweep journal " + path_ +
                                            ": " + errno_message());
    }
    // Replay stops at the first bad line, so a record appended after a
    // torn tail would never be read: drop the tail first. Syncing the
    // directory makes a newly created journal itself durable.
    if (::ftruncate(fd_, static_cast<off_t>(end_)) != 0 ||
        !sync_parent_directory(path_)) {
      const std::string why = errno_message();
      close();
      throw SiteError("journal_append",
                      "cannot prepare sweep journal " + path_ + ": " + why);
    }
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  std::string path_;
  int fd_ = -1;
  std::uint64_t end_ = 0;  ///< synced length; nothing past it is trusted
};

/// Write `bytes` to a fresh file at `path` and fsync it.
void write_synced_file(const std::string& path, std::string_view bytes) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) {
    throw SiteError("manifest_write",
                    "cannot open sweep manifest for writing: " + path);
  }
  const bool written = write_at(fd, bytes, 0) && ::fsync(fd) == 0;
  if (!(::close(fd) == 0 && written)) {
    throw SiteError("manifest_write",
                    "write failed for sweep manifest: " + path);
  }
}

/// Atomically and durably (re)write the manifest with every completed
/// cell, sorted by index: fsync a temp file, rename(2) it into place, and
/// fsync the directory. No wall-clock or host-specific fields: the final
/// manifest of a resumed sweep must be byte-identical to a single-pass
/// one, and a sweep whose quarantined cells recover on resume must be
/// byte-identical to a pass that never failed (the quarantined array
/// drains back to []). Throws SiteError on every failure so callers can
/// retry by site, and never leaves the temp file behind.
void write_manifest(const std::string& path, const std::string& sweep_name,
                    const sim::ConvergenceOptions& conv,
                    std::size_t total_cells,
                    const std::vector<const CellResult*>& completed,
                    const std::vector<ErrorRecord>& quarantined,
                    fault::FaultInjector* fault) {
  if (fault != nullptr) fault->check("manifest_write", path);
  create_parent_directory(path, "manifest_write");
  std::ostringstream out;
  {
    obs::JsonWriter w(out);
    w.begin_object();
    w.kv("schema", kSchema);
    w.kv("sweep", std::string_view(sweep_name));
    w.key("options");
    w.begin_object();
    w.kv("seed", conv.seed);
    w.kv("target_relative_sem", conv.target_relative_sem);
    w.kv("target_absolute_sem", conv.target_absolute_sem);
    w.kv("zero_ddf_upper_bound", conv.zero_ddf_upper_bound);
    w.kv("batch_trials", static_cast<std::uint64_t>(conv.batch_trials));
    w.kv("min_trials", static_cast<std::uint64_t>(conv.min_trials));
    w.kv("max_trials", static_cast<std::uint64_t>(conv.max_trials));
    w.kv("bucket_hours", conv.bucket_hours);
    w.kv("target_ess", conv.target_ess);
    // The sweep-wide tilt; a cell's own tilt is on the cell.
    w.kv("op_tilt", conv.tilt ? conv.tilt->op_theta : 1.0);
    w.kv("math_tier", sim::math_tier_name(conv.math_tier));
    w.end_object();
    w.kv("total_cells", static_cast<std::uint64_t>(total_cells));
    w.key("cells");
    w.begin_array();
    for (const CellResult* r : completed) write_cell(w, *r);
    w.end_array();
    w.key("quarantined");
    w.begin_array();
    {
      std::vector<const ErrorRecord*> ordered;
      ordered.reserve(quarantined.size());
      for (const ErrorRecord& q : quarantined) ordered.push_back(&q);
      std::sort(ordered.begin(), ordered.end(),
                [](const ErrorRecord* a, const ErrorRecord* b) {
                  return a->index < b->index;
                });
      for (const ErrorRecord* q : ordered) {
        w.begin_object();
        w.kv("site", std::string_view(q->site));
        w.kv("index", static_cast<std::uint64_t>(q->index));
        w.kv("label", std::string_view(q->label));
        w.kv("cell_key", q->cell_key);
        w.kv("attempts", q->attempts);
        w.kv("message", std::string_view(q->message));
        w.end_object();
      }
    }
    w.end_array();
    w.end_object();
    out << '\n';
  }
  const std::string tmp = path + ".tmp";
  try {
    write_synced_file(tmp, out.str());
    if (fault != nullptr) fault->check("manifest_rename", path);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      throw SiteError("manifest_rename",
                      "cannot move sweep manifest into place: " + path);
    }
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  if (!sync_parent_directory(path)) {
    throw SiteError("manifest_rename",
                    "cannot sync the directory of sweep manifest " + path +
                        ": " + errno_message());
  }
}

CellResult simulate_cell(const SweepCell& cell,
                         const sim::ConvergenceOptions& base_options,
                         fault::FaultInjector* fault, bool deadline_armed,
                         util::CancelToken* cancel) {
  const sim::ConvergenceOptions effective = cell_options(cell, base_options);
  sim::ConvergenceOptions opt = effective;
  opt.threads = 1;  // determinism: a cell is one worker's serial job
  opt.telemetry = nullptr;
  opt.fault = fault;
  opt.cancel = cancel;
  const raid::GroupConfig config = cell.scenario.to_group_config();
  const sim::ConvergedRun run = sim::run_until_converged(config, opt);
  if (run.stop == sim::ConvergedRun::StopRule::kCancelled ||
      run.stop == sim::ConvergedRun::StopRule::kDeadline) {
    // A cell never keeps partial work — the manifest holds only full,
    // bit-reproducible results — so surface the cancellation and let the
    // worker decide between "leave pending" (sweep-level interrupt) and
    // "quarantine as stalled" (the cell's own soft budget expired).
    throw util::OperationCancelled(
        run.stop == sim::ConvergedRun::StopRule::kDeadline
            ? util::CancelReason::kDeadline
            : util::CancelReason::kCancelled);
  }
  if (deadline_armed && !run.converged) {
    // A deadline stop is a deterministic failure: re-running cannot
    // converge any better, so the caller quarantines without retrying.
    throw SiteError("cell_deadline",
                    "cell '" + cell.label + "' did not converge within " +
                        std::to_string(base_options.max_trials) + " trials");
  }

  CellResult r;
  r.index = cell.index;
  r.label = cell.label;
  r.coordinates = cell.coordinates;
  r.config_digest = cell.config_digest;
  const char* exclusion = sim::latent_credit_exclusion(config, effective.tilt);
  set_estimator(r, exclusion);
  r.cell_key =
      cell_cache_key(cell.config_digest, effective, exclusion == nullptr);
  r.trials = run.result.trials();
  r.batches = run.batches;
  r.converged = run.converged;
  r.stop = sim::to_string(run.stop);
  r.total_ddfs_per_1000 = run.result.total_ddfs_per_1000();
  r.sem_per_1000 = run.absolute_sem;
  r.relative_sem = std::isfinite(run.relative_sem) ? run.relative_sem : -1.0;
  const double year1 = std::min(8760.0, config.mission_hours);
  r.year1_ddfs_per_1000 = run.result.ddfs_per_1000_at(year1);
  r.double_op_per_1000 =
      run.result.total_per_1000(raid::DdfKind::kDoubleOperational);
  r.latent_then_op_per_1000 =
      run.result.total_per_1000(raid::DdfKind::kLatentThenOp);
  r.op_failures = run.result.op_failures();
  r.latent_defects = run.result.latent_defects();
  r.scrubs_completed = run.result.scrubs_completed();
  r.restores_completed = run.result.restores_completed();
  r.op_tilt = effective.tilt ? effective.tilt->op_theta : 1.0;
  r.ess = run.ess;
  r.rebuild = raid::to_string(cell.scenario.rebuild);
  r.result_digest = cell_result_digest(r);
  return r;
}

}  // namespace

SweepRunner::SweepRunner(SweepOptions options)
    : options_(std::move(options)) {}

SweepResult SweepRunner::run(const SweepSpec& spec) {
  return run(spec.name(), spec.expand());
}

SweepResult SweepRunner::run(const std::string& sweep_name,
                             const std::vector<SweepCell>& cells) {
  RAIDREL_REQUIRE(!cells.empty(), "sweep has no cells");
  RAIDREL_REQUIRE(options_.cell_attempts > 0,
                  "retry budgets must be at least 1 attempt");

  // The effective convergence options are fixed once: the trial deadline
  // clamps the budget, and because the cache key hashes min/max trials,
  // deadline runs get their own cache rows automatically.
  sim::ConvergenceOptions conv = options_.convergence;
  const bool deadline_armed = options_.cell_trial_deadline > 0;
  if (deadline_armed) {
    conv.max_trials = std::min(conv.max_trials, options_.cell_trial_deadline);
    conv.min_trials = std::min(conv.min_trials, conv.max_trials);
  }
  // One renewal-table cache for every cell of the pass (unless the caller
  // passed one): cells that share a latent rate and scrub law share their
  // table. It never feeds a cell key or the manifest, since a cached table
  // is the same table.
  sim::LatentCurveCache own_curves;
  if (conv.latent_curves == nullptr) conv.latent_curves = &own_curves;
  const std::size_t tables_before = conv.latent_curves->builds();
  fault::FaultInjector* fault = options_.fault;
  obs::RunTelemetry* telemetry = options_.telemetry;
  const double backoff_ms = options_.retry_backoff_ms;

  util::CancelToken* sweep_cancel = options_.cancel;
  const double soft_budget = options_.cell_soft_budget_seconds;
  const double hard_budget = options_.cell_hard_budget_seconds;
  RAIDREL_REQUIRE(soft_budget >= 0.0 && hard_budget >= 0.0,
                  "cell time budgets must be non-negative");
  // Every cell attempt runs under its own child token when either the
  // sweep can be cancelled or a soft budget bounds the cell; with neither,
  // the legacy token-free path is preserved exactly (zero polls).
  const bool cell_tokens = sweep_cancel != nullptr || soft_budget > 0.0;
  auto soft_deadline = [soft_budget] {
    return soft_budget > 0.0 ? util::Deadline::after_seconds(soft_budget)
                             : util::Deadline::never();
  };

  SweepResult out;
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> injected{0};
  std::atomic<std::uint64_t> stalled{0};
  auto observe = [&](const std::exception& e) {
    if (is_injected_fault(e)) {
      injected.fetch_add(1);
      note_event(telemetry, error_site(e, "?"), "injected", 0, e.what());
    }
  };

  // Runs one manifest or journal operation under the kManifestAttempts
  // budget; on exhaustion records an io_error and returns false. Callers
  // hold the mutex or run while no worker does.
  auto with_io_retries = [&](const char* fallback_site, auto&& op) {
    for (unsigned attempt = 1;; ++attempt) {
      try {
        op();
        return true;
      } catch (const std::exception& e) {
        observe(e);
        const std::string site = error_site(e, fallback_site);
        if (attempt < kManifestAttempts) {
          retries.fetch_add(1);
          note_event(telemetry, site, "retry", attempt, e.what());
          retry_backoff(backoff_ms, attempt);
          continue;
        }
        out.io_errors.push_back({site, 0, options_.manifest_path, 0, attempt,
                                 e.what()});
        note_event(telemetry, site, "io-error", attempt, e.what());
        return false;
      }
    }
  };

  const bool persist = !options_.manifest_path.empty();
  LoadedCache loaded;
  if (persist && options_.resume) {
    // An unreadable cache does not stop the sweep: it just resimulates.
    with_io_retries("manifest_read", [&] {
      if (fault != nullptr) {
        fault->check("manifest_read", options_.manifest_path);
      }
      loaded = load_cache(options_.manifest_path, telemetry);
    });
  }
  const std::unordered_map<std::uint64_t, CellResult>& cache = loaded.cells;

  // Slot per cell; cached cells fill immediately, the rest go pending.
  std::vector<CellResult> slots(cells.size());
  std::vector<bool> done(cells.size(), false);
  std::vector<bool> failed(cells.size(), false);
  std::vector<std::size_t> pending;
  std::size_t cached = 0;
  for (const SweepCell& cell : cells) {
    const std::uint64_t key = cell_key(cell, conv);
    const auto hit = cache.find(key);
    if (hit != cache.end()) {
      // The key matched, and it hashes the config digest, so identity —
      // including the config digest, which no result digest covers —
      // comes from the current expansion.
      CellResult r = hit->second;
      r.index = cell.index;
      r.label = cell.label;
      r.coordinates = cell.coordinates;
      r.config_digest = cell.config_digest;
      set_estimator(r, cell_exclusion(cell, cell_options(cell, conv)));
      slots[cell.index] = std::move(r);
      done[cell.index] = true;
      ++cached;
    } else {
      pending.push_back(cell.index);
    }
  }
  if (options_.max_cells > 0 && pending.size() > options_.max_cells) {
    pending.resize(options_.max_cells);
  }

  std::mutex mutex;  // guards slots/done/failed/out, journal and progress
  std::size_t completed = cached;

  // Only a compaction writes the manifest: every completed cell plus the
  // in-memory quarantine records, after which the journal is emptied. A
  // compaction that keeps failing leaves the journal in place, so nothing
  // durable is lost.
  Journal journal(journal_path(options_.manifest_path), loaded.journal_bytes);
  auto compact = [&] {
    std::vector<const CellResult*> ordered;
    ordered.reserve(completed);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (done[i]) ordered.push_back(&slots[i]);
    }
    with_io_retries("manifest_write", [&] {
      write_manifest(options_.manifest_path, sweep_name, conv, cells.size(),
                     ordered, out.quarantined, fault);
      journal.clear();
    });
  };
  // Fold a replayed journal into the manifest before appending to it.
  if (loaded.replayed > 0) compact();

  // Called under the mutex once per completed cell, before the completion
  // is reported. An append that keeps failing stops journaling — losing
  // the on-disk cache must not lose the in-memory sweep.
  bool journaling = persist;
  auto journal_cell = [&](const std::string& record) {
    if (!journaling) return;
    journaling = with_io_retries(
        "journal_append", [&] { journal.append(record, fault); });
  };

  // In-flight attempt registry for the watchdog. Workers register each
  // attempt before it starts and unregister when it resolves; the monitor
  // thread scans the registry on a fixed tick and flags attempts past
  // their budgets. Lock order: inflight_mutex is never held while taking
  // the main mutex with another thread in between — the watchdog collects
  // under inflight_mutex, releases, then reports under the main mutex.
  struct InFlight {
    std::size_t index = 0;
    const std::string* label = nullptr;
    std::chrono::steady_clock::time_point start;
    bool soft_noted = false;
    bool hard_noted = false;
  };
  const bool watchdog_armed = soft_budget > 0.0 || hard_budget > 0.0;
  std::mutex inflight_mutex;  // guards inflight and watchdog_stop
  std::condition_variable watchdog_cv;
  std::vector<InFlight> inflight;
  bool watchdog_stop = false;
  auto register_attempt = [&](std::size_t idx, const SweepCell& cell) {
    if (!watchdog_armed) return;
    const std::lock_guard<std::mutex> lk(inflight_mutex);
    inflight.push_back(
        {idx, &cell.label, std::chrono::steady_clock::now(), false, false});
  };
  auto unregister_attempt = [&](std::size_t idx) {
    if (!watchdog_armed) return;
    const std::lock_guard<std::mutex> lk(inflight_mutex);
    for (auto it = inflight.begin(); it != inflight.end(); ++it) {
      if (it->index == idx) {
        inflight.erase(it);
        break;
      }
    }
  };
  std::thread watchdog;
  if (watchdog_armed) {
    watchdog = std::thread([&] {
      // Tick fast enough to notice a breach at a fraction of the smallest
      // armed budget, slow enough to stay invisible in profiles.
      double tick_s = 0.25;
      if (soft_budget > 0.0) tick_s = std::min(tick_s, soft_budget / 8.0);
      if (hard_budget > 0.0) tick_s = std::min(tick_s, hard_budget / 8.0);
      const auto tick =
          std::chrono::duration<double>(std::max(tick_s, 0.001));
      std::unique_lock<std::mutex> lk(inflight_mutex);
      while (!watchdog_stop) {
        watchdog_cv.wait_for(lk, tick);
        const auto now = std::chrono::steady_clock::now();
        std::vector<ErrorRecord> hard_records;
        for (InFlight& f : inflight) {
          const double elapsed =
              std::chrono::duration<double>(now - f.start).count();
          if (soft_budget > 0.0 && !f.soft_noted && elapsed > soft_budget) {
            f.soft_noted = true;
            stalled.fetch_add(1);
            note_event(telemetry, "cell", "stalled", 0,
                       *f.label + ": exceeded soft budget (" +
                           std::to_string(soft_budget) + "s)");
          }
          if (hard_budget > 0.0 && !f.hard_noted && elapsed > hard_budget) {
            f.hard_noted = true;
            stalled.fetch_add(1);
            hard_records.push_back(
                {"watchdog_hard", f.index, *f.label, 0, 0,
                 "cell still in flight past the hard watchdog budget (" +
                     std::to_string(hard_budget) + "s)"});
          }
        }
        if (!hard_records.empty()) {
          lk.unlock();
          {
            const std::lock_guard<std::mutex> lock(mutex);
            for (ErrorRecord& r : hard_records) {
              note_event(telemetry, r.site, "stalled", 0,
                         r.label + ": " + r.message);
              out.io_errors.push_back(std::move(r));
            }
          }
          lk.lock();
        }
      }
    });
  }

  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      // A tripped sweep token stops the claim loop: unclaimed cells stay
      // pending (a resumed run recomputes them in full), and whatever
      // this worker already completed is durable in the journal.
      if (sweep_cancel != nullptr &&
          sweep_cancel->poll_quiet() != util::CancelReason::kNone) {
        return;
      }
      const std::size_t p = next.fetch_add(1);
      if (p >= pending.size()) return;
      const std::size_t idx = pending[p];
      const SweepCell& cell = cells[idx];
      for (unsigned attempt = 1;; ++attempt) {
        // Fresh child per attempt: a retry must not inherit the expired
        // soft deadline of the attempt it replaces. The CancelScope makes
        // the token visible to layers without a token parameter (an
        // injected @hang at the "cell" site polls it).
        util::CancelToken cell_token =
            sweep_cancel != nullptr ? sweep_cancel->child(soft_deadline())
                                    : util::CancelToken(soft_deadline());
        util::CancelToken* cell_cancel = cell_tokens ? &cell_token : nullptr;
        const util::CancelScope cancel_scope(cell_cancel);
        register_attempt(idx, cell);
        try {
          if (fault != nullptr) fault->check("cell", cell.label);
          CellResult r =
              simulate_cell(cell, conv, fault, deadline_armed, cell_cancel);
          unregister_attempt(idx);
          const std::string record = persist ? journal_record(r) : "";
          const std::lock_guard<std::mutex> lock(mutex);
          slots[idx] = std::move(r);
          done[idx] = true;
          ++completed;
          journal_cell(record);
          if (options_.progress != nullptr) {
            const CellResult& cr = slots[idx];
            *options_.progress << "[" << completed << "/" << cells.size()
                               << "] " << cr.label << ": "
                               << cr.total_ddfs_per_1000 << " DDFs/1000 ("
                               << cr.trials << " trials, " << cr.stop
                               << ")\n";
          }
          break;
        } catch (const util::OperationCancelled& e) {
          unregister_attempt(idx);
          if (sweep_cancel != nullptr && sweep_cancel->cancelled()) {
            // Sweep-level interrupt (signal or wall deadline): nothing
            // partial to keep — leave the cell pending and stop claiming.
            return;
          }
          // The cell's own soft budget expired. Retrying would replay the
          // same budget exhaustion (modulo scheduler luck), so quarantine
          // straight away, like cell_deadline.
          stalled.fetch_add(1);
          const std::lock_guard<std::mutex> lock(mutex);
          failed[idx] = true;
          out.quarantined.push_back(
              {"cell_stalled", cell.index, cell.label,
               cell_key(cell, conv), attempt, e.what()});
          note_event(telemetry, "cell_stalled", "quarantine", attempt,
                     cell.label + ": " + e.what());
          if (options_.progress != nullptr) {
            *options_.progress << "[" << (completed + out.quarantined.size())
                               << "/" << cells.size() << "] " << cell.label
                               << ": STALLED after " << attempt
                               << " attempt(s) (cell_stalled)\n";
          }
          break;
        } catch (const std::exception& e) {
          unregister_attempt(idx);
          observe(e);
          const std::string site = error_site(e, "cell");
          // A deadline stop is deterministic — retrying replays the same
          // budget exhaustion — so it skips straight to quarantine.
          if (site != "cell_deadline" && attempt < options_.cell_attempts) {
            retries.fetch_add(1);
            note_event(telemetry, site, "retry", attempt, e.what());
            retry_backoff(backoff_ms, attempt);
            continue;
          }
          const std::lock_guard<std::mutex> lock(mutex);
          failed[idx] = true;
          out.quarantined.push_back(
              {site, cell.index, cell.label,
               cell_key(cell, conv), attempt, e.what()});
          note_event(telemetry, site, "quarantine", attempt,
                     cell.label + ": " + e.what());
          if (options_.progress != nullptr) {
            *options_.progress << "[" << (completed + out.quarantined.size())
                               << "/" << cells.size() << "] " << cell.label
                               << ": QUARANTINED after " << attempt
                               << " attempt(s) (" << site << ")\n";
          }
          break;
        }
      }
    }
  };

  unsigned threads = options_.threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, std::max<std::size_t>(pending.size(), 1)));
  if (!pending.empty()) {
    // With an injector armed, even a single-shard sweep routes through the
    // pool so the pool_task site is exercised the same way as at scale.
    const bool use_pool = threads > 1 || fault != nullptr;
    sim::ThreadPool pool;
    pool.set_fault_injector(fault);
    for (unsigned attempt = 1;; ++attempt) {
      try {
        if (use_pool) {
          pool.run(threads, worker);
        } else {
          worker();
        }
        break;
      } catch (const std::exception& e) {
        // Only failures *outside* the worker body land here (the worker
        // quarantines its own); classic case: an armed pool_task site
        // killing a shard before it drains the queue.
        observe(e);
        const std::string site = error_site(e, "pool_task");
        bool all_resolved = true;
        {
          const std::lock_guard<std::mutex> lock(mutex);
          for (const std::size_t idx : pending) {
            if (!done[idx] && !failed[idx]) {
              all_resolved = false;
              break;
            }
          }
        }
        if (all_resolved) break;  // surviving shards drained the queue
        if (attempt < kSweepAttempts) {
          retries.fetch_add(1);
          note_event(telemetry, site, "retry", attempt, e.what());
          retry_backoff(backoff_ms, attempt);
          continue;
        }
        const std::lock_guard<std::mutex> lock(mutex);
        out.io_errors.push_back({site, 0, "sweep fan-out", 0, attempt,
                                 e.what()});
        note_event(telemetry, site, "io-error", attempt, e.what());
        break;
      }
    }
  }

  if (watchdog.joinable()) {
    {
      const std::lock_guard<std::mutex> lk(inflight_mutex);
      watchdog_stop = true;
    }
    watchdog_cv.notify_all();
    watchdog.join();
  }
  // Compact even when nothing ran, so a copied or merged cache file
  // converges to the canonical single-pass bytes. An interrupted sweep
  // compacts too: its workers have drained.
  if (persist) compact();

  out.total_cells = cells.size();
  out.cached = cached;
  out.simulated = completed - cached;
  out.complete = completed == cells.size();
  out.retries = retries.load();
  out.faults_injected = injected.load();
  out.stalled = stalled.load();
  out.latent_tables_built = conv.latent_curves->builds() - tables_before;
  if (sweep_cancel != nullptr && sweep_cancel->cancelled()) {
    out.interrupted = true;
    out.stop_reason = util::to_string(sweep_cancel->reason());
    out.cancel_latency_seconds = sweep_cancel->seconds_since_cancel();
    if (telemetry != nullptr) {
      telemetry->set_stop_reason({out.stop_reason, sweep_cancel->polls(),
                                  out.cancel_latency_seconds});
    }
  }
  std::sort(out.quarantined.begin(), out.quarantined.end(),
            [](const ErrorRecord& a, const ErrorRecord& b) {
              return a.index < b.index;
            });
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (done[i]) out.cells.push_back(std::move(slots[i]));
  }
  if (out.complete) {
    std::string chain;
    chain.reserve(out.cells.size() * 21);
    for (const CellResult& r : out.cells) {
      append_u64(chain, r.result_digest);
      chain += ';';
    }
    out.sweep_digest = obs::fnv1a64(chain);
  }
  return out;
}

}  // namespace raidrel::sweep
