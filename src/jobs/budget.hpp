#pragma once

/// \file budget.hpp
/// The process-wide `--jobs=` cap: the total number of threads the
/// process may run, the main thread included. The process executor
/// (src/jobs/executor.hpp) is the only code that creates threads, so
/// the cap is enforced where it is configured — set_process_concurrency
/// builds the executor with `limit() - 1` workers — and nothing has to
/// be handed out or returned at run time. Sharded runs fan their shard
/// epochs out as fork-join work on that same executor.
///
/// An unconfigured cap is unlimited (limit() == 0), which preserves the
/// historical behavior of library users (tests, examples) that never
/// pass --jobs: the process executor then sizes itself to the hardware.

#include <atomic>

namespace plurality::jobs {

class ThreadBudget {
 public:
  /// An unlimited cap (the default-constructed state).
  ThreadBudget() = default;
  ThreadBudget(const ThreadBudget&) = delete;
  ThreadBudget& operator=(const ThreadBudget&) = delete;

  /// The process-wide cap.
  static ThreadBudget& global();

  /// Sets the cap to `total` threads including the calling (main)
  /// thread; `total` >= 1.
  void configure(unsigned total);

  /// Removes the cap (the default). Test hook.
  void reset_unlimited() noexcept {
    limit_.store(0, std::memory_order_relaxed);
  }

  /// The configured cap; 0 when unlimited.
  unsigned limit() const noexcept {
    return limit_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<unsigned> limit_{0};
};

}  // namespace plurality::jobs
