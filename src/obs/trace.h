// Bounded event tracing for the simulation engines.
//
// A TrialTrace records the full event history of one simulated mission in
// dispatch order — the exact sequence the engine's event loop processed,
// including intra-instant ordering (spare arrivals before slot events on
// ties, scrub-clears before restores before failures within a slot). That
// makes traces the ground truth for cross-validating engines in the tests:
// two engines (or the same engine at different lane widths) agree iff
// their traces agree event for event. The engines take a TrialTrace* per
// trial; no run option sets one, and a null trace records nothing.
#pragma once

#include <cstdint>
#include <vector>

namespace raidrel::obs {

/// Event classes the engines dispatch. kDdf marks a recorded data-loss
/// event (emitted right after the op-failure or latent-defect dispatch
/// that caused it).
enum class TraceEventKind : std::uint8_t {
  kOpFailure,
  kRestoreDone,
  kLatentDefect,
  kScrubComplete,
  kSpareArrival,
  kDdf,
};

struct TraceEvent {
  double time = 0.0;
  TraceEventKind kind = TraceEventKind::kOpFailure;
  std::uint32_t group = 0;  ///< 0 for single-group engines
  std::uint32_t slot = 0;   ///< kNoSlot for pool-level events

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  [[nodiscard]] bool operator==(const TraceEvent& o) const noexcept {
    return time == o.time && kind == o.kind && group == o.group &&
           slot == o.slot;
  }
};

/// Bounded per-trial event buffer. Events beyond the cap are counted but
/// dropped, so a pathological trial cannot exhaust memory.
class TrialTrace {
 public:
  explicit TrialTrace(std::size_t max_events = 4096);

  void clear() noexcept;
  void record(double time, TraceEventKind kind, std::uint32_t slot,
              std::uint32_t group = 0);

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t dropped() const noexcept { return dropped_; }

 private:
  std::vector<TraceEvent> events_;
  std::size_t cap_;
  std::size_t dropped_ = 0;
};

}  // namespace raidrel::obs
