#pragma once

/// \file runner.hpp
/// Seeded sweep runner on top of the process-wide work-stealing
/// executor (src/jobs/). A whole sweep is declared up front as a DAG
/// of (sweep-point, repetition) leaf jobs on ONE executor submission,
/// so short points at the end of a sweep fill the cores that long
/// early points leave idle. Each repetition gets its own RNG stream
/// derived from (point seed, repetition index), so results are
/// identical regardless of the number of worker threads — determinism
/// is a property of the seed, parallelism only changes wall-clock
/// time. Per-point completion callbacks run on the calling thread in
/// declaration order after the DAG drains, which keeps Welford
/// aggregation, BENCH JSON records, and table printing bit-identical
/// to a serial run regardless of job completion order.

#include <cstdint>
#include <functional>
#include <vector>

#include "rng/seed.hpp"
#include "support/assert.hpp"

namespace plurality {

/// Declares a whole sweep as one job graph: call add_point() once per
/// sweep point (in the order rows should be recorded/printed), then
/// run(). Every (point, rep) pair becomes one leaf job with its RNG
/// stream drawn from that point's SeedSequence at the rep index, and
/// every leaf writes a pre-sized slot — so the transposed per-slot
/// sample vectors handed to `finish` are bit-identical to a serial
/// sweep for any worker count, including zero.
///
/// `threads` (0 = no cap, 1 = serial inline) bounds in-flight leaves
/// across the WHOLE sweep via chain dependencies: leaf j cannot start
/// before leaf j - threads completes. One SweepRunner is single-use.
class SweepRunner {
 public:
  using Body = std::function<std::vector<double>(std::uint64_t, Xoshiro256&)>;
  using Finish =
      std::function<void(const std::vector<std::vector<double>>&)>;

  explicit SweepRunner(unsigned threads = 0) : threads_(threads) {}
  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  /// Declares one sweep point: `reps` repetitions of `body`, each
  /// returning `slots` doubles, seeded from `seeds`. After the whole
  /// sweep completes, `finish(by_slot)` is invoked on the calling
  /// thread with by_slot[slot][rep], points in declaration order.
  /// Both callbacks run inside run(), after the declaring scope may
  /// have ended: whatever they capture by reference must outlive
  /// run(); per-point values (loop variables, plan copies, latency
  /// models) belong in the captures by value.
  void add_point(std::uint64_t reps, std::size_t slots, SeedSequence seeds,
                 Body body, Finish finish);

  /// Executes every declared point's repetitions (one executor
  /// submission), then the finish callbacks in declaration order.
  /// Rethrows the first exception any body threw; finish callbacks do
  /// not run in that case.
  void run();

 private:
  struct Point {
    std::uint64_t reps;
    std::size_t slots;
    SeedSequence seeds;
    Body body;
    Finish finish;
    std::vector<std::vector<double>> per_rep;  // pre-sized result rows
  };

  unsigned threads_;
  bool ran_ = false;
  std::vector<Point> points_;
};

}  // namespace plurality
