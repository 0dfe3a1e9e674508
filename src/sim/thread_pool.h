// Persistent worker pool for the Monte Carlo drivers.
//
// run_until_converged issues one run_monte_carlo call per batch, and every
// call used to spawn and join a fresh std::thread per worker — tens of
// thread creations per converged study, paid on the hot path between
// batches. A ThreadPool keeps the workers parked on a condition variable
// instead: run() hands the same callable to `tasks` workers and blocks
// until all of them finish, exactly the semantics of the old spawn/join
// block. The convergence loop owns one pool for all of its batches, and
// any caller of run_monte_carlo / run_fleet_monte_carlo can pass its own
// through RunOptions::pool (e.g. a bench iterating over many runs).
//
// The pool deliberately has no task queue: the runner's workers already
// self-schedule by claiming trial chunks from a shared atomic, so the pool
// only needs "execute this callable N times concurrently, then wait".
//
// Exception safety: a task that throws no longer takes the process down
// with std::terminate. The first exception is captured, every other task
// of that run() still completes, and the exception is rethrown on the
// coordinating thread once all workers are parked again — so the same pool
// instance remains usable for the next run().
//
// Workers are not pinned to CPUs: every trial draws from a stream keyed
// by its global index, so where it runs cannot change a result, and no
// host has measured a gain from placement (docs/MODEL.md §17).
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace raidrel::fault {
class FaultInjector;
}

namespace raidrel::sim {

class ThreadPool {
 public:
  /// Workers are started lazily by run(); construction is free.
  ThreadPool() = default;
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  /// Execute `fn` `tasks` times concurrently on pool workers and block
  /// until every invocation returns. `tasks == 0` returns immediately
  /// without spawning anything. Grows the pool to `tasks` workers on
  /// first use. Not reentrant: one run() at a time (the drivers call it
  /// from a single coordinating thread, as the old spawn/join did).
  ///
  /// If one or more invocations throw, every invocation still runs to
  /// completion (or to its own throw), the workers park, and the *first*
  /// captured exception is rethrown here on the caller's thread. The pool
  /// is fully reusable afterwards.
  void run(unsigned tasks, const std::function<void()>& fn);

  /// Optional fault-injection hook: when set, every task invocation
  /// passes through the "pool_task" site before running (see
  /// fault/fault_injection.h). Set before run(); null disables. The
  /// injector must outlive the pool's last run().
  void set_fault_injector(fault::FaultInjector* injector) noexcept {
    injector_ = injector;
  }

  /// Workers currently parked or running.
  [[nodiscard]] unsigned worker_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  const std::function<void()>* job_ = nullptr;
  fault::FaultInjector* injector_ = nullptr;
  std::exception_ptr first_error_;  ///< first task exception of this run()
  unsigned unclaimed_ = 0;  ///< invocations not yet picked up by a worker
  unsigned active_ = 0;     ///< invocations picked up and still running
  bool shutdown_ = false;
};

}  // namespace raidrel::sim
