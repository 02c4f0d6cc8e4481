#pragma once

/// \file executor.hpp
/// A process-wide work-stealing job executor, the one scheduler of the
/// process: sweeps become DAGs of (sweep-point, rep) jobs (see
/// experiment/runner.hpp), and a sharded run fans each epoch's shards
/// out as a fork-join (parallel_for) on the same workers, so small jobs
/// pack many runs per core and big runs spread over the cores, all
/// under one --jobs= cap (src/jobs/budget.hpp). The executor's workers
/// are the only threads src/ creates.
///
/// Scheduling design:
///   - one Chase–Lev deque per worker (lock-free owner push/pop at the
///     bottom, CAS steal at the top, with the memory orderings of
///     Lê/Pop/Cohen/Nardelli "Correct and Efficient Work-Stealing for
///     Weak Memory Models"; payload cells are release/acquire so a
///     thief's read of the job body is properly ordered even under
///     ThreadSanitizer, which does not model standalone fences);
///   - steal-half scavenging: a thief that hits a victim takes one job
///     to run and migrates up to half of the victim's remaining queue
///     into its own deque, amortizing the steal path when one worker
///     holds a long run of jobs;
///   - an injection queue (mutex-guarded) for submissions from threads
///     that are not workers — the experiment main thread, and the
///     continuations it releases while helping;
///   - park/unpark: idle workers spin over {own deque, injection
///     queue, every victim} a few rounds and then park on a condition
///     variable. Every enqueue bumps a ready counter UNDER the park
///     mutex and notifies, and parked workers re-check that counter
///     under the same mutex — the classic eventcount pairing that
///     cannot lose a wakeup.
///
/// Waiting: Executor::wait(graph) lets the calling thread help — it
/// drains the injection queue and steals from workers until the graph
/// completes. With zero workers (--jobs=1) this degrades to running
/// every job inline on the caller in release order: the serial path,
/// which is what the scheduling-determinism tests compare against.
///
/// Fork-join: Executor::parallel_for(count, fn) registers an open fork
/// that idle workers join — ahead of queued jobs — claiming indices
/// alongside the caller. When the caller's claims run dry it closes the
/// fork and waits only for the workers that joined, i.e. for indices
/// some thread has already started. It never runs another job while it
/// waits: the stack depth stays bounded, and a fork-join issued from
/// inside a job finishes even when every worker is busy elsewhere (the
/// caller then claims every index itself) — an epoch never waits
/// behind a foreign run. No helper outlives the call, so nothing a
/// fork-join causes runs after it returns.
///
/// Shutdown is RAII: the destructor stops the workers after their
/// in-flight job, joins them, and DROPS any still-queued work — a
/// graph abandoned this way never reports done, so destroy the
/// executor only when no thread is left inside wait() or
/// parallel_for().
///
/// Determinism contract (what the experiment layer builds on): the
/// executor schedules; it never touches job payloads. Any computation
/// whose jobs write disjoint, pre-sized slots and derive their RNG
/// streams from (seed, job-key) — never from thread identity or
/// completion order — produces bit-identical results for every worker
/// count, including zero.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "jobs/budget.hpp"
#include "jobs/graph.hpp"

namespace plurality::jobs {

namespace detail {

/// Chase–Lev work-stealing deque of JobGraph::Node*. The owner pushes
/// and pops at the bottom; any number of thieves steal from the top.
/// Grows by doubling; retired arrays are kept until destruction, since
/// a thief may still be reading a stale array pointer within one
/// steal() call.
class WorkDeque {
 public:
  WorkDeque();
  WorkDeque(const WorkDeque&) = delete;
  WorkDeque& operator=(const WorkDeque&) = delete;
  ~WorkDeque();

  /// Owner only.
  void push(JobGraph::Node* node);

  /// Owner only; nullptr when empty (or lost the last-item race).
  JobGraph::Node* pop();

  /// Any thread; nullptr when empty or when the steal raced.
  JobGraph::Node* steal();

  /// Approximate size as seen by a thief.
  std::int64_t approx_size() const noexcept;

 private:
  struct Array {
    explicit Array(std::int64_t cap);
    std::int64_t capacity;
    std::unique_ptr<std::atomic<JobGraph::Node*>[]> cells;

    JobGraph::Node* get(std::int64_t i) const noexcept {
      return cells[static_cast<std::size_t>(i & (capacity - 1))].load(
          std::memory_order_acquire);
    }
    void put(std::int64_t i, JobGraph::Node* node) noexcept {
      cells[static_cast<std::size_t>(i & (capacity - 1))].store(
          node, std::memory_order_release);
    }
  };

  void grow(std::int64_t bottom, std::int64_t top);

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Array*> array_;
  std::vector<std::unique_ptr<Array>> retired_;  // owner-side
};

struct ForkJoin;  // one open parallel_for (executor.cpp)

}  // namespace detail

class Executor {
 public:
  /// Spawns `workers` worker threads.
  explicit Executor(unsigned workers);
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;
  ~Executor();

  unsigned workers() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueues every zero-dependency node of `graph`. Non-blocking; the
  /// graph must outlive its run and can be submitted once.
  void submit(JobGraph& graph);

  /// Helps execute work until `graph` is done, then rethrows the first
  /// captured job exception, if any. Throws ContractViolation when the
  /// graph can provably never finish (zero workers, no runnable job,
  /// nodes remaining — i.e. a dependency cycle).
  void wait(JobGraph& graph);

  /// submit + wait.
  void run(JobGraph& graph) {
    submit(graph);
    wait(graph);
  }

  /// Runs fn(i) for every i in [0, count) and returns once all have
  /// finished; callable from any thread, including from inside a job.
  /// The caller claims indices alongside the idle workers that join
  /// and waits only for indices already started, never running another
  /// job meanwhile (see the file header). With zero workers or
  /// count <= 1 every index runs inline, in order. The first exception
  /// thrown by fn is rethrown after the join; indices claimed after it
  /// are skipped. Which thread runs which index is unspecified, so fn
  /// must not key results on thread identity.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// The calling thread's index among this executor's workers, or
  /// workers() when the caller is not one of them (e.g. main).
  unsigned worker_index() const noexcept;

  /// The process-wide executor (created on first use with
  /// ThreadBudget::global().limit() - 1 workers, or
  /// hardware_concurrency - 1 when the cap is unset).
  static Executor& process();

  /// Rebuilds the process executor with `workers` threads if it differs
  /// from the current count. Call only between runs, from one thread,
  /// with no other thread inside submit()/wait().
  static void set_process_workers(unsigned workers);

 private:
  struct Worker {
    std::unique_ptr<detail::WorkDeque> deque;
    std::thread thread;
  };

  void worker_loop(unsigned index);
  void execute(JobGraph::Node* node);
  void enqueue(JobGraph::Node* node);
  void finish(JobGraph::Node* node);
  JobGraph::Node* try_get(unsigned self_index);
  JobGraph::Node* pop_injected();
  JobGraph::Node* steal_from_workers(unsigned self_index, bool migrate);
  detail::ForkJoin* join_fork();
  bool fork_claimable() const;  // caller holds park_mutex_

  std::vector<Worker> workers_;

  // Injection queue: submissions from non-worker threads.
  std::mutex inject_mutex_;
  std::vector<JobGraph::Node*> injected_;  // FIFO via head index
  std::size_t inject_head_ = 0;

  // Park/unpark eventcount: ready_ is incremented under park_mutex_ on
  // every enqueue (so a worker that checked it under the mutex and
  // found nothing is guaranteed a notify), decremented relaxed on
  // every successful take.
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  std::atomic<std::int64_t> ready_{0};
  std::atomic<bool> stop_{false};

  // Open parallel_for calls, guarded by park_mutex_ so a parking
  // worker's wake predicate sees every registration; open_forks_
  // mirrors the size for a lock-free "none open" check.
  std::vector<detail::ForkJoin*> forks_;
  std::atomic<std::size_t> open_forks_{0};
};

/// Configures the process-wide concurrency from a resolved --jobs=
/// value: the global ThreadBudget cap becomes `total` and the process
/// executor is rebuilt with `total - 1` workers (the main thread is
/// the first thread). Idempotent for an unchanged value; call only
/// between runs.
void set_process_concurrency(unsigned total);

}  // namespace plurality::jobs
