#include "sim/thread_pool.h"

#include "fault/fault_injection.h"

namespace raidrel::sim {

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::run(unsigned tasks, const std::function<void()>& fn) {
  if (tasks == 0) return;
  std::unique_lock<std::mutex> lock(mutex_);
  while (workers_.size() < tasks) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  job_ = &fn;
  first_error_ = nullptr;
  unclaimed_ = tasks;
  active_ = tasks;
  work_ready_.notify_all();
  work_done_.wait(lock, [this] { return active_ == 0; });
  job_ = nullptr;
  if (first_error_) {
    std::exception_ptr error = std::move(first_error_);
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_ready_.wait(lock, [this] { return shutdown_ || unclaimed_ > 0; });
    if (unclaimed_ > 0) {
      --unclaimed_;
      const std::function<void()>* job = job_;
      fault::FaultInjector* injector = injector_;
      lock.unlock();
      // A throwing task must not unwind into std::thread (std::terminate);
      // capture and let run() rethrow on the coordinating thread instead.
      std::exception_ptr error;
      try {
        if (injector != nullptr) injector->check("pool_task");
        (*job)();
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      if (error && !first_error_) first_error_ = std::move(error);
      if (--active_ == 0) work_done_.notify_all();
      continue;
    }
    if (shutdown_) return;
  }
}

}  // namespace raidrel::sim
