// Cooperative cancellation and deadline propagation.
//
// Every long-running layer of the stack — the Monte Carlo engines, the
// convergence loop, the sweep runner, the drivers' signal handlers — needs
// one shared answer to "should this work stop now?". A CancelToken is that
// answer: a small value handle over shared atomic state that a producer
// trips (request_cancel, a signal handler, an expired Deadline) and
// consumers poll at safe points. Polling is wait-free (relaxed atomic
// loads plus one monotonic clock read when a deadline is armed) and never
// perturbs random streams, so a run that is never cancelled is
// bit-identical to one executed with no token at all.
//
// Tokens are hierarchical: child() derives a token that observes every
// ancestor's cancellation *plus* its own deadline, but whose own
// request_cancel never propagates upward. That is exactly the sweep
// shape — one sweep-level token (tripped by SIGTERM or a wall-clock
// deadline) fanning out to per-cell children (each additionally bounded by
// the cell's time budget), and later the resident-service shape (one token
// per client request).
//
// Cancellation is *cooperative and graceful*: consumers poll, finish or
// abandon the current unit of work, and either return partial results
// (the convergence loop finalizes what it has with honest diagnostics) or
// throw OperationCancelled (deep layers with nothing partial to return).
// Nothing is ever killed mid-instruction, which is what keeps checkpoints
// durable and resumed runs byte-identical.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>

#include "util/error.h"

namespace raidrel::util {

/// A fixed instant on the monotonic clock. Default-constructed deadlines
/// never expire; armed ones expire when steady_clock passes `when()`.
/// Wall-clock (system time) is deliberately not used: a suspended laptop
/// or an NTP step must not cancel a simulation.
class Deadline {
 public:
  Deadline() = default;  ///< never expires

  static Deadline never() noexcept { return Deadline(); }
  static Deadline at(std::chrono::steady_clock::time_point tp) noexcept {
    Deadline d;
    d.armed_ = true;
    d.when_ = tp;
    return d;
  }
  /// A deadline `seconds` from now. Values past the clock's range (1e30,
  /// +inf) saturate to never(): the tick conversion would overflow.
  static Deadline after_seconds(double seconds) noexcept {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point now = Clock::now();
    // Half the headroom left on the clock (~146 years at nanosecond
    // ticks): far past any real deadline, and the margin keeps rounding
    // in the double -> tick conversion from overflowing.
    const double room =
        std::chrono::duration<double>(Clock::time_point::max() - now)
            .count() /
        2.0;
    if (!(seconds < room)) return never();
    return at(now + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            std::max(seconds, -room))));
  }

  [[nodiscard]] bool armed() const noexcept { return armed_; }
  [[nodiscard]] bool expired() const noexcept {
    return armed_ && std::chrono::steady_clock::now() >= when_;
  }
  /// Seconds until expiry (negative once past); +inf for never().
  [[nodiscard]] double remaining_seconds() const noexcept {
    if (!armed_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(when_ -
                                         std::chrono::steady_clock::now())
        .count();
  }
  [[nodiscard]] std::chrono::steady_clock::time_point when() const noexcept {
    return when_;
  }

 private:
  bool armed_ = false;
  std::chrono::steady_clock::time_point when_{};
};

/// Why a token is cancelled. kDeadline distinguishes "ran out of time"
/// from an explicit request so stop reasons, exit codes, and quarantine
/// records stay honest about what actually ended the work.
enum class CancelReason : int { kNone = 0, kCancelled = 1, kDeadline = 2 };

const char* to_string(CancelReason reason) noexcept;

/// Thrown by CancelToken::poll() (and by layers that have nothing partial
/// to hand back) once cancellation is observed. Derives SiteError with
/// site "cancelled" or "deadline" so the sweep engine's site-keyed
/// handling can classify it without a new catch clause.
class OperationCancelled : public SiteError {
 public:
  explicit OperationCancelled(CancelReason reason);

  [[nodiscard]] CancelReason reason() const noexcept { return reason_; }

 private:
  CancelReason reason_;
};

/// Shared-state cancellation handle. Copies share one state; child()
/// derives a new state that also observes this one. All observers are
/// lock-free; request_cancel() is async-signal-safe (atomic stores and
/// clock_gettime only — see SignalGuard).
class CancelToken {
 public:
  /// A fresh root token, optionally bounded by `deadline`.
  CancelToken() : CancelToken(Deadline::never()) {}
  explicit CancelToken(Deadline deadline);

  /// A token that observes this token's cancellation (and its ancestors')
  /// plus its own `deadline`. Cancelling the child never affects the
  /// parent — a stalled cell's abort must not stop the sweep.
  [[nodiscard]] CancelToken child(Deadline deadline = Deadline::never()) const;

  /// Trip the token (idempotent; the first reason wins). Safe to call
  /// from any thread and from a signal handler.
  void request_cancel(CancelReason reason = CancelReason::kCancelled) noexcept;

  /// Effective reason: this token's own flag or deadline, else the
  /// nearest cancelled ancestor's. kNone while work should continue.
  [[nodiscard]] CancelReason reason() const noexcept;
  [[nodiscard]] bool cancelled() const noexcept {
    return reason() != CancelReason::kNone;
  }

  /// Poll point for code that cannot return partial work: counts the
  /// check and throws OperationCancelled once cancelled.
  void poll() const;
  /// Poll point for graceful drains: counts the check and reports the
  /// effective reason so the caller can finish up and return what it has.
  CancelReason poll_quiet() const noexcept;

  /// Checks observed through this token's state (not its children's) —
  /// the "polls" telemetry counter.
  [[nodiscard]] std::uint64_t polls() const noexcept;

  /// Seconds elapsed since cancellation was requested (or since the
  /// deadline passed); negative while not cancelled. The drain side of
  /// the cancel-latency metric: request → last worker parked.
  [[nodiscard]] double seconds_since_cancel() const noexcept;

  /// The deadline this token was constructed with (never() for plain
  /// tokens). Ancestors' deadlines are observed but not reported here.
  [[nodiscard]] Deadline deadline() const noexcept;

  /// Test hook: trip the token automatically on the Nth poll (1-based:
  /// the Nth poll and every later one observes kCancelled). Poll counts
  /// are deterministic under a single thread, which is what lets the
  /// batch-vs-scalar cancellation equivalence tests cancel both engines
  /// at the same trial boundary. 0 disables.
  void cancel_after_polls(std::uint64_t n) noexcept;

  struct State;
  /// The shared state, for SignalGuard's async-signal-safe handler slot.
  [[nodiscard]] const std::shared_ptr<State>& state() const noexcept {
    return state_;
  }

 private:
  explicit CancelToken(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// The thread's innermost cancellation context, installed by CancelScope.
/// Deep layers that sleep or spin without a token parameter — the fault
/// injector's delay/hang kinds — poll this so an injected wedge stays
/// breakable by the same cancellation that breaks real work.
CancelToken* current_cancel_token() noexcept;

/// RAII installer for current_cancel_token(). A null token clears the
/// slot for the scope (a worker with no cancellation support must not
/// inherit an outer scope's token across a thread reuse).
class CancelScope {
 public:
  explicit CancelScope(CancelToken* token) noexcept;
  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;
  ~CancelScope();

 private:
  CancelToken* previous_;
};

/// Async-signal-safe SIGINT/SIGTERM → CancelToken bridge for the drivers.
///
/// The first delivery of either signal trips the guarded token
/// (request_cancel, atomics only) and returns — the run drains
/// cooperatively, checkpoints stay durable, and the driver exits with its
/// documented "interrupted" code. A second delivery means the cooperative
/// drain is stuck (or the user is insistent) and forces
/// _exit(128 + signal) immediately, the conventional fatal-signal code.
///
/// One guard may be active per process at a time (the handler slot is a
/// static atomic; nesting is a programming error and throws). The
/// destructor restores the previous handlers.
class SignalGuard {
 public:
  explicit SignalGuard(const CancelToken& token);
  SignalGuard(const SignalGuard&) = delete;
  SignalGuard& operator=(const SignalGuard&) = delete;
  ~SignalGuard();

  /// The first signal delivered (SIGINT/SIGTERM), or 0 if none yet.
  [[nodiscard]] int signal() const noexcept;
  [[nodiscard]] bool triggered() const noexcept { return signal() != 0; }

 private:
  std::shared_ptr<CancelToken::State> state_;  ///< keeps the slot alive
};

}  // namespace raidrel::util
