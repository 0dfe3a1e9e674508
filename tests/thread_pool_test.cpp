// ThreadPool exception safety (sim/thread_pool.h): a throwing task must
// surface on the coordinating thread instead of std::terminate, and the
// same pool must stay fully usable for the next run().
#include "sim/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>

#include "fault/fault_injection.h"
#include "util/error.h"

namespace {

using raidrel::ModelError;
using raidrel::sim::ThreadPool;
namespace fault = raidrel::fault;

TEST(ThreadPool, ZeroTasksReturnsImmediatelyWithoutSpawning) {
  ThreadPool pool;
  std::atomic<int> calls{0};
  pool.run(0, [&] { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(pool.worker_count(), 0u);
}

TEST(ThreadPool, RunsEveryTaskAndBlocksUntilDone) {
  ThreadPool pool;
  std::atomic<int> calls{0};
  pool.run(4, [&] { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 4);
  EXPECT_EQ(pool.worker_count(), 4u);
}

TEST(ThreadPool, WorkerExceptionRethrownOnCallerAndPoolStaysUsable) {
  ThreadPool pool;
  std::atomic<int> calls{0};
  std::atomic<int> turn{0};
  auto job = [&] {
    calls.fetch_add(1);
    if (turn.fetch_add(1) == 0) throw std::runtime_error("task 0 died");
  };
  try {
    pool.run(3, job);
    FAIL() << "worker exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 0 died");
  }
  // Every task of the faulted run() still executed (no half-drained run).
  EXPECT_EQ(calls.load(), 3);

  // The same pool instance must survive the exception: follow-up run()s
  // behave as if nothing happened.
  std::atomic<int> again{0};
  pool.run(3, [&] { again.fetch_add(1); });
  EXPECT_EQ(again.load(), 3);
}

TEST(ThreadPool, FirstExceptionWinsWhenEveryTaskThrows) {
  ThreadPool pool;
  std::atomic<int> calls{0};
  try {
    pool.run(4, [&] {
      const int id = calls.fetch_add(1);
      throw std::runtime_error("task " + std::to_string(id));
    });
    FAIL() << "worker exceptions were swallowed";
  } catch (const std::runtime_error& e) {
    // Exactly one of the four exceptions is rethrown; which one is
    // scheduling-dependent, but it must be one of them.
    EXPECT_EQ(std::string(e.what()).rfind("task ", 0), 0u) << e.what();
  }
  EXPECT_EQ(calls.load(), 4);
}

TEST(ThreadPool, PoolTaskSiteFiresBeforeTheTaskBody) {
  ThreadPool pool;
  fault::FaultInjector injector{fault::FaultPlan::parse("pool_task:1")};
  pool.set_fault_injector(&injector);
  std::atomic<int> calls{0};
  // Two tasks, first pool_task hit armed: exactly one task body is
  // skipped and the injected fault surfaces on the caller.
  EXPECT_THROW(pool.run(2, [&] { calls.fetch_add(1); }),
               fault::InjectedFault);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(injector.hits("pool_task"), 2u);
  EXPECT_EQ(injector.injected("pool_task"), 1u);

  // Detaching the injector restores the unfaulted fast path.
  pool.set_fault_injector(nullptr);
  pool.run(2, [&] { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ThreadPool, ReusableAcrossManyFaultedRuns) {
  // Stress the park/rethrow cycle: the pool must not leak permits or
  // deadlock after repeated failures (the sweep retry loop depends on it).
  ThreadPool pool;
  fault::FaultInjector injector{
      fault::FaultPlan::parse("pool_task:1*100")};
  pool.set_fault_injector(&injector);
  for (int round = 0; round < 10; ++round) {
    EXPECT_THROW(pool.run(2, [] {}), fault::InjectedFault);
  }
  pool.set_fault_injector(nullptr);
  std::atomic<int> calls{0};
  pool.run(2, [&] { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 2);
}

}  // namespace
