// Tests for the work-stealing job executor (src/jobs/): dependency
// order on diamond / fan-out / fan-in graphs, the steal path under a
// deliberately unbalanced load, park/unpark with no lost wakeups over
// many tiny graphs, exception propagation (first throw wins, queued
// jobs skipped), RAII shutdown with work still queued, the zero-worker
// inline degradation, cycle detection, the fork-join primitive
// (parallel_for: real two-thread execution, progress with every worker
// busy elsewhere, exception propagation), the unconfigured --jobs= cap,
// and SweepRunner's determinism / ordering / argument contracts.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "experiment/runner.hpp"
#include "jobs/budget.hpp"
#include "jobs/executor.hpp"
#include "jobs/graph.hpp"
#include "rng/seed.hpp"
#include "support/assert.hpp"

namespace plurality::jobs {
namespace {

// ---- JobGraph structure ----------------------------------------------

TEST(JobGraph, AddAndDependBookkeeping) {
  JobGraph graph;
  const auto a = graph.add([] {});
  const auto b = graph.add([] {});
  graph.depend(b, a);
  EXPECT_EQ(graph.size(), 2u);
  EXPECT_FALSE(graph.done());
  EXPECT_FALSE(graph.failed());
}

TEST(JobGraph, RejectsSelfDependencyAndEmptyJob) {
  JobGraph graph;
  const auto a = graph.add([] {});
  EXPECT_THROW(graph.depend(a, a), ContractViolation);
  EXPECT_THROW(graph.add(std::function<void()>{}), ContractViolation);
}

// ---- dependency order ------------------------------------------------

// Runs the graph on `workers` threads and returns per-job finish
// stamps from a shared atomic counter.
std::vector<std::uint64_t> run_stamped(
    unsigned workers, std::vector<std::function<void()>>& bodies,
    const std::vector<std::pair<std::size_t, std::size_t>>& edges) {
  JobGraph graph;
  std::atomic<std::uint64_t> clock{0};
  std::vector<std::uint64_t> stamp(bodies.size(), 0);
  std::vector<JobGraph::JobId> ids;
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    ids.push_back(graph.add([&, i] {
      bodies[i]();
      stamp[i] = clock.fetch_add(1) + 1;
    }));
  }
  for (const auto& [job, prereq] : edges) {
    graph.depend(ids[job], ids[prereq]);
  }
  Executor executor(workers);
  executor.run(graph);
  EXPECT_TRUE(graph.done());
  return stamp;
}

TEST(Executor, DiamondRespectsDependencies) {
  for (const unsigned workers : {0u, 1u, 4u}) {
    std::vector<std::function<void()>> bodies(4, [] {});
    // 0 -> {1, 2} -> 3
    const auto stamp = run_stamped(
        workers, bodies, {{1, 0}, {2, 0}, {3, 1}, {3, 2}});
    EXPECT_LT(stamp[0], stamp[1]);
    EXPECT_LT(stamp[0], stamp[2]);
    EXPECT_GT(stamp[3], stamp[1]);
    EXPECT_GT(stamp[3], stamp[2]);
  }
}

TEST(Executor, FanOutFanInRespectsDependencies) {
  constexpr std::size_t kFan = 32;
  for (const unsigned workers : {0u, 2u, 8u}) {
    std::vector<std::function<void()>> bodies(kFan + 2, [] {});
    std::vector<std::pair<std::size_t, std::size_t>> edges;
    for (std::size_t i = 1; i <= kFan; ++i) {
      edges.push_back({i, 0});          // fan-out from the root
      edges.push_back({kFan + 1, i});   // fan-in to the sink
    }
    const auto stamp = run_stamped(workers, bodies, edges);
    for (std::size_t i = 1; i <= kFan; ++i) {
      EXPECT_LT(stamp[0], stamp[i]);
      EXPECT_LT(stamp[i], stamp[kFan + 1]);
    }
    EXPECT_EQ(stamp[kFan + 1], kFan + 2);  // sink finished last
  }
}

// ---- steal path ------------------------------------------------------

TEST(Executor, StealsAcrossWorkersUnderUnbalancedLoad) {
  // A root job fans out hundreds of continuations. The finishing worker
  // pushes all of them onto its OWN deque, so every other worker (and
  // the waiting caller) can only obtain work by stealing. The first
  // leaf to start blocks until a second thread has run a leaf, so its
  // thread cannot drain the deque alone however the host schedules the
  // workers: only a steal ends the wait. With stealing broken the wait
  // times out and a single thread is seen.
  constexpr int kJobs = 512;
  JobGraph graph;
  std::mutex mutex;
  std::condition_variable second_thread_seen;
  std::set<std::thread::id> executors_seen;
  bool first_leaf_started = false;
  const auto root = graph.add([] {});
  for (int i = 0; i < kJobs; ++i) {
    const auto leaf = graph.add([&] {
      std::unique_lock<std::mutex> lock(mutex);
      executors_seen.insert(std::this_thread::get_id());
      if (!first_leaf_started) {
        first_leaf_started = true;
        second_thread_seen.wait_for(lock, std::chrono::seconds(30), [&] {
          return executors_seen.size() >= 2;
        });
      } else {
        second_thread_seen.notify_all();
      }
    });
    graph.depend(leaf, root);
  }
  Executor executor(3);
  executor.run(graph);
  EXPECT_TRUE(graph.done());
  EXPECT_GE(executors_seen.size(), 2u);
}

// ---- park/unpark -----------------------------------------------------

TEST(Executor, ManySmallGraphsNoLostWakeups) {
  // Each tiny graph parks the workers before the next submission; a
  // lost wakeup would hang this loop (the 2-job graphs cannot finish
  // without a worker or the helping caller picking them up).
  Executor executor(2);
  for (int round = 0; round < 300; ++round) {
    JobGraph graph;
    std::atomic<int> ran{0};
    const auto a = graph.add([&] { ran.fetch_add(1); });
    const auto b = graph.add([&] { ran.fetch_add(1); });
    graph.depend(b, a);
    executor.run(graph);
    ASSERT_EQ(ran.load(), 2);
  }
}

// ---- exceptions ------------------------------------------------------

TEST(Executor, ExceptionPropagatesAndSkipsQueuedJobs) {
  JobGraph graph;
  std::atomic<int> downstream_ran{0};
  const auto boom = graph.add([] { throw std::runtime_error("boom"); });
  // A long chain behind the throwing job: all of it must be skipped,
  // yet the graph still drains (done() true) so wait() can rethrow.
  auto prev = boom;
  for (int i = 0; i < 50; ++i) {
    const auto next = graph.add([&] { downstream_ran.fetch_add(1); });
    graph.depend(next, prev);
    prev = next;
  }
  Executor executor(2);
  EXPECT_THROW(executor.run(graph), std::runtime_error);
  EXPECT_TRUE(graph.done());
  EXPECT_TRUE(graph.failed());
  EXPECT_EQ(downstream_ran.load(), 0);
}

TEST(Executor, FirstExceptionWins) {
  JobGraph graph;
  graph.add([] { throw std::runtime_error("first"); });
  Executor executor(0);  // inline: deterministic single throw
  try {
    executor.run(graph);
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

// ---- shutdown --------------------------------------------------------

TEST(Executor, RaiiShutdownWithQueuedWork) {
  // Destroy the executor while a deep chain is still queued; the
  // destructor must stop and join without executing everything and
  // without touching freed state. The graph outlives the executor.
  JobGraph graph;
  std::atomic<int> ran{0};
  auto prev = graph.add([&] { ran.fetch_add(1); });
  for (int i = 0; i < 10000; ++i) {
    const auto next = graph.add([&] { ran.fetch_add(1); });
    graph.depend(next, prev);
    prev = next;
  }
  {
    Executor executor(2);
    executor.submit(graph);
    // No wait: the destructor runs with most of the chain pending.
  }
  EXPECT_LE(ran.load(), 10001);
}

// ---- zero workers ----------------------------------------------------

TEST(Executor, ZeroWorkersRunsInlineInReleaseOrder) {
  JobGraph graph;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    graph.add([&order, i] { order.push_back(i); });
  }
  Executor executor(0);
  executor.run(graph);
  // Independent jobs are injected FIFO and executed by the caller in
  // submission order — the serial reference schedule.
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(Executor, ZeroWorkersDetectsCycle) {
  JobGraph graph;
  const auto a = graph.add([] {});
  const auto b = graph.add([] {});
  graph.depend(a, b);
  graph.depend(b, a);
  Executor executor(0);
  EXPECT_THROW(executor.run(graph), ContractViolation);
}

// ---- fork-join -------------------------------------------------------

/// Spins until `ready` holds or 10 s pass; returns whether it held.
template <typename Ready>
bool await(Ready ready) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!ready()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ParallelFor, ZeroWorkersRunsEveryIndexInlineInOrder) {
  Executor executor(0);
  std::vector<std::size_t> order;
  executor.parallel_for(6, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
  executor.parallel_for(0, [&](std::size_t) { FAIL(); });
}

TEST(ParallelFor, IndicesRunOnTwoThreadsWhenWorkersExist) {
  // Whichever thread claims index 0 holds it until index 1 has
  // started, so index 1 must be claimed by a second thread: with a
  // worker present the fork really runs in parallel.
  Executor executor(2);
  std::atomic<bool> one_started{false};
  std::atomic<bool> zero_saw_one{false};
  std::thread::id ran_on[2];
  executor.parallel_for(2, [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
    if (i == 1) {
      one_started.store(true);
    } else {
      zero_saw_one.store(await([&] { return one_started.load(); }));
    }
  });
  EXPECT_TRUE(zero_saw_one.load()) << "index 1 never started beside 0";
  EXPECT_NE(ran_on[0], ran_on[1]);
}

TEST(ParallelFor, FinishesInsideJobWhileEveryOtherWorkerIsBusy) {
  // Worker A runs the host job; the other two workers are held by long
  // jobs of a foreign graph whose third job is still queued. The host's
  // fork-join must finish on A alone, and A must not pick up the queued
  // foreign job while it joins (bounded stack, no epoch stuck behind a
  // foreign run).
  Executor executor(3);
  std::atomic<bool> host_started{false};
  std::atomic<bool> host_done{false};
  std::atomic<bool> release{false};
  std::atomic<int> foreign_started{0};
  std::thread::id joiner;
  std::vector<std::thread::id> ran_on(8);
  int foreign_started_at_join = -1;
  bool others_busy = false;

  JobGraph host;
  host.add([&] {
    host_started.store(true);
    others_busy = await([&] { return foreign_started.load() >= 2; });
    joiner = std::this_thread::get_id();
    executor.parallel_for(ran_on.size(), [&](std::size_t i) {
      ran_on[i] = std::this_thread::get_id();
    });
    foreign_started_at_join = foreign_started.load();
    host_done.store(true);
  });
  JobGraph foreign;
  for (int j = 0; j < 3; ++j) {
    foreign.add([&] {
      foreign_started.fetch_add(1);
      await([&] { return release.load(); });
    });
  }
  executor.submit(host);
  ASSERT_TRUE(await([&] { return host_started.load(); }));
  executor.submit(foreign);
  const bool finished = await([&] { return host_done.load(); });
  release.store(true);
  executor.wait(foreign);
  executor.wait(host);
  ASSERT_TRUE(others_busy);
  EXPECT_TRUE(finished) << "fork-join stalled behind foreign jobs";
  EXPECT_EQ(foreign_started_at_join, 2);
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, joiner);
}

TEST(ParallelFor, RethrowsAfterJoiningEveryStartedIndex) {
  Executor executor(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(executor.parallel_for(64,
                                     [&](std::size_t i) {
                                       ran.fetch_add(1);
                                       if (i == 5) {
                                         throw std::runtime_error("boom");
                                       }
                                     }),
               std::runtime_error);
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), 64);
}

// ---- --jobs= cap -----------------------------------------------------

TEST(ThreadBudget, UnconfiguredBudgetIsUnlimited) {
  ThreadBudget budget;
  EXPECT_EQ(budget.limit(), 0u);
  budget.configure(4);
  EXPECT_EQ(budget.limit(), 4u);
  budget.reset_unlimited();
  EXPECT_EQ(budget.limit(), 0u);
}

// ---- SweepRunner -----------------------------------------------------

TEST(SweepRunner, MatchesSerialScheduleAndFinishOrder) {
  // The same two-point sweep under the serial path (threads=1), a
  // chained cap (threads=2), and full width (threads=0) must hand
  // identical per-slot samples to finish callbacks, in declaration
  // order — the contract the experiment layer's records rest on.
  const auto run_with = [](unsigned threads) {
    SweepRunner sweep(threads);
    std::vector<std::vector<std::vector<double>>> results;
    std::vector<int> finish_order;
    for (int point = 0; point < 3; ++point) {
      sweep.add_point(
          5, 2, SeedSequence(99).child(point),
          [](std::uint64_t rep, Xoshiro256& rng) {
            return std::vector<double>{
                static_cast<double>(rng.next() % 1000),
                static_cast<double>(rep)};
          },
          [&results, &finish_order, point](const auto& by_slot) {
            results.push_back(by_slot);
            finish_order.push_back(point);
          });
    }
    sweep.run();
    return std::pair{results, finish_order};
  };

  const auto [serial, serial_order] = run_with(1);
  ASSERT_EQ(serial.size(), 3u);
  EXPECT_EQ(serial_order, (std::vector<int>{0, 1, 2}));
  // Slot 1 carries the rep index: proves per-rep slots land in rep
  // order, not completion order.
  for (const auto& by_slot : serial) {
    for (std::uint64_t rep = 0; rep < 5; ++rep) {
      EXPECT_EQ(by_slot[1][rep], static_cast<double>(rep));
    }
  }
  for (const unsigned threads : {2u, 0u}) {
    const auto [parallel, parallel_order] = run_with(threads);
    EXPECT_EQ(parallel, serial);
    EXPECT_EQ(parallel_order, serial_order);
  }
}

TEST(SweepRunner, PropagatesBodyExceptions) {
  SweepRunner sweep(0);
  bool finished = false;
  sweep.add_point(
      2, 1, SeedSequence(1),
      [](std::uint64_t, Xoshiro256&) -> std::vector<double> {
        throw std::runtime_error("sweep boom");
      },
      [&finished](const auto&) { finished = true; });
  EXPECT_THROW(sweep.run(), std::runtime_error);
  EXPECT_FALSE(finished);
}

TEST(SweepRunner, Contracts) {
  SweepRunner sweep(0);
  const SweepRunner::Body body = [](std::uint64_t, Xoshiro256&) {
    return std::vector<double>{0.0};
  };
  const SweepRunner::Finish finish = [](const auto&) {};
  EXPECT_THROW(sweep.add_point(0, 1, SeedSequence(3), body, finish),
               ContractViolation);
  EXPECT_THROW(sweep.add_point(1, 0, SeedSequence(3), body, finish),
               ContractViolation);
  EXPECT_THROW(sweep.add_point(1, 1, SeedSequence(3), nullptr, finish),
               ContractViolation);
}

}  // namespace
}  // namespace plurality::jobs
