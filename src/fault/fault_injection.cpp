#include "fault/fault_injection.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>

#include "util/cancel.h"

namespace raidrel::fault {

namespace {

std::string describe(std::string_view site, std::uint64_t hit,
                     std::string_view key) {
  std::string out = "injected fault (hit ";
  out += std::to_string(hit);
  if (!key.empty()) {
    out += ", key \"";
    out += key;
    out += '"';
  }
  out += ") at site ";
  out += site;
  return out;
}

/// A plan's decimal number: digits only, at most 2^64 - 1.
std::uint64_t parse_number(const std::string& digits, const std::string& what,
                           const std::string& token) {
  RAIDREL_REQUIRE(!digits.empty() &&
                      digits.find_first_not_of("0123456789") ==
                          std::string::npos,
                  what + " must be a non-negative integer: " + token);
  try {
    return std::stoull(digits);
  } catch (const std::out_of_range&) {
    throw ModelError(what + " is out of range: " + token);
  }
}

}  // namespace

InjectedFault::InjectedFault(std::string_view site, std::uint64_t hit,
                             std::string_view key)
    : SiteError(std::string(site), describe(site, hit, key)), hit_(hit) {}

const std::vector<std::string>& registered_sites() {
  // Keep sorted; docs/MODEL.md §11 mirrors this table and the CI
  // fault-matrix job iterates it via `raidrel_sweep --list-inject-sites`.
  static const std::vector<std::string> kSites = {
      "cell",             // one sweep-cell simulation attempt
      "journal_append",   // writing one sweep-journal record
      "journal_sync",     // fdatasync of one sweep-journal record
      "manifest_read",    // loading the sweep manifest cache
      "manifest_rename",  // moving the manifest temp file into place
      "manifest_write",   // writing the manifest temp file
      "pool_task",        // one ThreadPool worker-task invocation
      "runner_trial",     // one Monte Carlo trial
  };
  return kSites;
}

bool is_registered_site(std::string_view site) {
  const auto& sites = registered_sites();
  return std::binary_search(sites.begin(), sites.end(), site);
}

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    std::string token = text.substr(begin, end - begin);
    begin = end + 1;
    RAIDREL_REQUIRE(!token.empty(), "empty fault spec in plan \"" + text + '"');

    FaultSpec spec;
    // Optional "@ms" / "@hang" kind suffix (parsed first: it is the
    // outermost decoration in the grammar).
    const std::size_t at = token.rfind('@');
    if (at != std::string::npos) {
      const std::string arg = token.substr(at + 1);
      token.resize(at);
      if (arg == "hang") {
        spec.delay_ms = std::numeric_limits<double>::infinity();
      } else {
        spec.delay_ms = static_cast<double>(
            parse_number(arg, "fault delay (milliseconds or \"hang\")",
                         token + '@' + arg));
      }
    }
    // Optional "*count" suffix.
    const std::size_t star = token.rfind('*');
    if (star != std::string::npos) {
      spec.count = parse_number(token.substr(star + 1), "fault count", token);
      RAIDREL_REQUIRE(spec.count >= 1, "fault count must be >= 1: " + token);
      token.resize(star);
    }
    // Optional ":arg" — a hit index when numeric, a work-unit key otherwise.
    const std::size_t colon = token.find(':');
    if (colon != std::string::npos) {
      const std::string arg = token.substr(colon + 1);
      token.resize(colon);
      RAIDREL_REQUIRE(!arg.empty(), "empty fault argument: " + token);
      if (arg.find_first_not_of("0123456789") == std::string::npos) {
        spec.first_hit = parse_number(arg, "fault hit index", token);
        RAIDREL_REQUIRE(spec.first_hit >= 1,
                        "fault hit index is 1-based: " + token);
      } else {
        spec.key = arg;
      }
    }
    spec.site = token;
    plan.arm(std::move(spec));
    if (end == text.size()) break;
  }
  return plan;
}

FaultPlan& FaultPlan::arm(FaultSpec spec) {
  RAIDREL_REQUIRE(is_registered_site(spec.site),
                  "unknown fault-injection site \"" + spec.site +
                      "\"; see registered_sites()");
  RAIDREL_REQUIRE(spec.count >= 1, "fault count must be >= 1");
  RAIDREL_REQUIRE(spec.first_hit >= 1, "fault hit index is 1-based");
  specs_.push_back(std::move(spec));
  return *this;
}

FaultInjector::FaultInjector(FaultPlan plan) {
  for (const FaultSpec& spec : plan.specs()) armed_.push_back({spec, 0});
}

void FaultInjector::check(std::string_view site, std::string_view key) {
  double delay_ms = -1.0;
  SiteState* state = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    RAIDREL_REQUIRE(is_registered_site(site),
                    "fault check at unregistered site \"" + std::string(site) +
                        "\"; add it to registered_sites()");
    for (auto& [name, s] : sites_) {
      if (name == site) {
        state = &s;
        break;
      }
    }
    if (state == nullptr) {
      sites_.emplace_back(std::string(site), SiteState{});
      state = &sites_.back().second;
    }
    const std::uint64_t hit = ++state->hits;
    for (ArmedSpec& armed : armed_) {
      if (armed.spec.site != site) continue;
      bool fire = false;
      if (!armed.spec.key.empty()) {
        if (key == armed.spec.key && armed.fired < armed.spec.count) {
          ++armed.fired;
          fire = true;
        }
      } else if (hit >= armed.spec.first_hit &&
                 hit - armed.spec.first_hit < armed.spec.count) {
        fire = true;
      }
      if (!fire) continue;
      if (armed.spec.is_delay()) {
        // Sleep outside the mutex: a delayed site must not serialize every
        // other thread's fault checks behind it.
        delay_ms = armed.spec.delay_ms;
        ++state->delayed;
        break;
      }
      ++state->injected;
      throw InjectedFault(site, hit, key);
    }
  }
  if (delay_ms < 0.0) return;

  if (std::isinf(delay_ms)) {
    // A hang wedges until the thread's cancellation context breaks it —
    // the deterministic stand-in for a worker stuck on a pathological
    // cell. Refuse to wedge a thread that nothing could ever unwedge.
    util::CancelToken* token = util::current_cancel_token();
    if (token == nullptr) {
      throw ModelError("injected hang at site \"" + std::string(site) +
                       "\" requires a cancellation context "
                       "(util::CancelScope); refusing to wedge forever");
    }
    constexpr auto kSlice = std::chrono::milliseconds(2);
    try {
      for (;;) {
        token->poll();
        std::this_thread::sleep_for(kSlice);
      }
    } catch (const util::OperationCancelled&) {
      // Re-find the site under the lock: sites_ may have reallocated
      // while this thread slept, so the earlier pointer is stale.
      const std::lock_guard<std::mutex> lock(mutex_);
      for (auto& [name, s] : sites_) {
        if (name == site) {
          ++s.injected;  // a broken hang is an observed failure
          break;
        }
      }
      throw;
    }
  }
  // Finite delay: a slow-but-honest operation. Deliberately sleeps the
  // whole duration without polling — this is what lets tests drive a cell
  // past its soft AND hard watchdog budgets deterministically.
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(delay_ms));
}

std::uint64_t FaultInjector::hits(std::string_view site) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, s] : sites_) {
    if (name == site) return s.hits;
  }
  return 0;
}

std::uint64_t FaultInjector::injected(std::string_view site) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, s] : sites_) {
    if (name == site) return s.injected;
  }
  return 0;
}

std::uint64_t FaultInjector::delayed(std::string_view site) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, s] : sites_) {
    if (name == site) return s.delayed;
  }
  return 0;
}

std::uint64_t FaultInjector::total_injected() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t sum = 0;
  for (const auto& [name, s] : sites_) sum += s.injected;
  return sum;
}

}  // namespace raidrel::fault
