// Scheduling-determinism stress test for the job-graph experiment
// layer: real registered experiments must emit bit-identical BENCH
// records and stdout whether they run serially (--threads=1 --jobs=1)
// or on the process executor with any worker count (--jobs=1,2,8),
// across repeated runs. Covered inputs: two_choices_scaling on an SBM
// community graph (synchronous sweep leaves), and two sharded-engine
// inputs whose epochs fork-join on the same executor from inside the
// sweep leaves — the plain epoch loop (adversarial_placements) and the
// latency path's delivery queues (latency_models), crash-stop
// perturbations drained at sharded epoch boundaries (crash_faults
// --engine=sharded) — plus the per-cell sweeps (crash_faults,
// late_adversary, recovery_injection, response_delays, topologies,
// model_equivalence, clock_skew's per-node-rate heap runs). This is the
// executable form of the executor's determinism contract
// (jobs/executor.hpp): RNG streams are keyed by (seed, sweep-point,
// rep) — and, for sharded runs, by (seed, shards) — and every rep
// writes a pre-sized slot, so scheduling order can never leak into the
// numbers.
//
// Links the experiment object library (see CMakeLists special-case),
// exactly like test_registry.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "experiment/args.hpp"
#include "experiment/json_writer.hpp"
#include "experiment/registry.hpp"

namespace plurality {
namespace {

Args make_args(const std::vector<const char*>& argv_tail) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), argv_tail.begin(), argv_tail.end());
  return Args(static_cast<int>(argv.size()), argv.data());
}

struct RunOutput {
  std::string record;  // normalized JSON dump
  std::string stdout_text;
};

/// The two_choices_scaling input: small-but-real (SBM topology, 8
/// reps, two sweep points).
const std::vector<const char*> kScalingFlags{
    "--graph=sbm", "--reps=8", "--max_n=2048", "--seed=12345", "--csv"};

/// Runs `name` with `flags` plus `scheduling_flags` and returns the
/// BENCH record with the scheduling-dependent fields pinned: wall clock
/// and the jobs/threads echoes differ across runs BY DESIGN, everything
/// else must not.
RunOutput run_experiment(const char* name,
                         const std::vector<const char*>& flags,
                         const std::vector<const char*>& scheduling_flags) {
  const auto& registry = ExperimentRegistry::instance();
  const Experiment* experiment = registry.find(name);
  EXPECT_NE(experiment, nullptr) << name;

  std::vector<const char*> tail = flags;
  tail.insert(tail.end(), scheduling_flags.begin(), scheduling_flags.end());

  ::testing::internal::CaptureStdout();
  JsonValue record = registry.run_to_record(*experiment, make_args(tail));
  RunOutput out;
  out.stdout_text = ::testing::internal::GetCapturedStdout();

  record["wall_clock_seconds"] = 0.0;
  JsonValue& params = record["params"];
  params["jobs_effective"] = 0;
  params["threads"] = 0;
  // Peak RSS is a host/allocator property, not a trajectory property —
  // it legitimately differs across worker counts and even across
  // identical reruns. numa_effective and bytes_per_node stay: both are
  // deterministic functions of the flags and the sweep.
  params["peak_rss_bytes"] = 0;
  // The trace summary documents the schedule (barrier waits, steals),
  // so like wall clock it differs across worker counts BY DESIGN; same
  // for the schedule-property trace series. Trajectory-property trace
  // series (the queue-depth quantiles) are NOT stripped — they must be
  // bit-identical like every other measured series.
  record["trace"] = JsonValue::object();
  const JsonValue& series = *record.find("series");
  JsonValue kept = JsonValue::array();
  for (std::size_t i = 0; i < series.size(); ++i) {
    const std::string& name = series.at(i).find("name")->as_string();
    if (name == "trace_barrier_wait_frac" || name == "trace_steal_count") {
      continue;
    }
    kept.push_back(series.at(i));
  }
  record["series"] = std::move(kept);
  out.record = record.dump();
  return out;
}

TEST(SchedulingDeterminism, RecordsBitIdenticalAcrossJobsCounts) {
  // The ground truth: pure serial (no executor path at all).
  const RunOutput serial =
      run_experiment("two_choices_scaling", kScalingFlags,
                     {"--threads=1", "--jobs=1"});
  ASSERT_NE(serial.record.find("\"rounds_vs_n\""), std::string::npos);

  // Executor path at increasing widths. --jobs=1 exercises the
  // zero-worker inline path; 2 and 8 are real work-stealing schedules
  // with different worker counts (and different steal interleavings
  // every run).
  for (const char* jobs : {"--jobs=1", "--jobs=2", "--jobs=8"}) {
    const RunOutput parallel =
        run_experiment("two_choices_scaling", kScalingFlags, {jobs});
    EXPECT_EQ(serial.record, parallel.record)
        << "BENCH record diverged from serial under " << jobs;
    EXPECT_EQ(serial.stdout_text, parallel.stdout_text)
        << "stdout diverged from serial under " << jobs;
  }
}

TEST(SchedulingDeterminism, RepeatedParallelRunsAreStable) {
  // Run-to-run stability at the widest setting: steal order differs
  // every time, the record must not.
  const RunOutput first =
      run_experiment("two_choices_scaling", kScalingFlags, {"--jobs=8"});
  for (int repeat = 0; repeat < 3; ++repeat) {
    const RunOutput again =
        run_experiment("two_choices_scaling", kScalingFlags, {"--jobs=8"});
    EXPECT_EQ(first.record, again.record)
        << "record changed between identical --jobs=8 runs";
    EXPECT_EQ(first.stdout_text, again.stdout_text);
  }
}

TEST(SchedulingDeterminism, SweepInputsBitIdenticalAcrossJobsCounts) {
  // Two hazards, one check against the pure serial schedule
  // (--threads=1 --jobs=1, every leaf and shard inline):
  //   - sharded runs inside sweep leaves: each epoch's shards fork-join
  //     on the executor that also runs the leaves, so at --jobs=2/8
  //     shards land on arbitrary threads; the (seed, shards) key must
  //     make that invisible;
  //   - per-cell sweeps: every leaf runs after the loop that declared
  //     it has ended, so a per-cell value captured by reference (a loop
  //     variable, a plan copy, a latency model, a topology) would read
  //     a dead object — the sanitizer jobs report it here.
  const struct {
    const char* name;
    std::vector<const char*> flags;
  } inputs[] = {
      {"adversarial_placements",
       {"--engine=sharded", "--shards=4", "--n=1024", "--horizon=300",
        "--reps=3", "--seed=4242", "--csv"}},
      {"latency_models",
       {"--engine=sharded", "--shards=4", "--latency=exp", "--n=1024",
        "--reps=3", "--seed=4242", "--csv"}},
      {"crash_faults", {"--n=256", "--reps=2", "--seed=77", "--csv"}},
      {"crash_faults",
       {"--engine=sharded", "--shards=4", "--n=256", "--reps=2",
        "--seed=77", "--csv"}},
      {"late_adversary",
       {"--n=512", "--reps=2", "--horizon=200", "--seed=77", "--csv"}},
      {"recovery_injection",
       {"--n=256", "--reps=2", "--horizon=60", "--perturb-budget=8",
        "--shards=2", "--seed=77", "--csv"}},
      {"response_delays", {"--n=256", "--reps=2", "--seed=77", "--csv"}},
      {"topologies",
       {"--n=256", "--reps=2", "--horizon=100", "--seed=77", "--csv"}},
      {"model_equivalence", {"--n=128", "--reps=2", "--seed=77", "--csv"}},
      {"clock_skew", {"--n=256", "--reps=2", "--seed=77", "--csv"}},
  };
  for (const auto& input : inputs) {
    const RunOutput reference = run_experiment(
        input.name, input.flags, {"--threads=1", "--jobs=1"});
    ASSERT_NE(reference.record.find("\"series\""), std::string::npos)
        << input.name;
    for (const char* jobs : {"--jobs=2", "--jobs=8"}) {
      const RunOutput parallel =
          run_experiment(input.name, input.flags, {jobs});
      EXPECT_EQ(reference.record, parallel.record)
          << input.name << ": BENCH record diverged under " << jobs;
      EXPECT_EQ(reference.stdout_text, parallel.stdout_text)
          << input.name << ": stdout diverged under " << jobs;
    }
  }
}

}  // namespace
}  // namespace plurality
