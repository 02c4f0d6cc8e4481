#include "sim/numa.hpp"

#include <algorithm>
#include <thread>

#include "jobs/executor.hpp"

#ifdef __linux__
#include <sched.h>
#endif

namespace plurality::numa {

void pin_worker([[maybe_unused]] const jobs::Executor& executor) noexcept {
#ifdef __linux__
  const unsigned lanes = executor.workers() + 1;
  const unsigned lane = executor.worker_index() + 1;
  if (lane >= lanes) return;  // not one of the executor's workers
  const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
  const unsigned cpu =
      static_cast<unsigned>((static_cast<std::uint64_t>(lane) * ncpu) /
                            lanes) %
      ncpu;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(static_cast<int>(cpu), &mask);
  // Best-effort: a failure (restricted cgroup mask, exotic topology)
  // leaves the thread on the scheduler's choice, which is the `off`
  // behavior — never an error.
  (void)sched_setaffinity(0, sizeof(mask), &mask);
#endif
}

}  // namespace plurality::numa
