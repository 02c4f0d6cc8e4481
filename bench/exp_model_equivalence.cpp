// E9 — §1 / ref [4]: the sequential model (uniform node per step,
// time = steps/n) and the continuous Poisson-clock model give the same
// run time. The continuous model itself has two exact simulations (the
// n-timer heap and O(1) superposition sampling — see
// sim/continuous_engine.hpp); the table runs the same protocols under
// all three and compares the consensus-time distributions.

#include <iterator>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/three_majority.hpp"
#include "core/two_choices.hpp"
#include "core/voter.hpp"
#include "graph/complete.hpp"
#include "opinion/assignment.hpp"
#include "sim/continuous_engine.hpp"
#include "sim/sequential_engine.hpp"

using namespace plurality;

namespace {

/// One repetition: a fresh protocol from `make_proto`, run on `engine`.
template <typename MakeProto, typename Engine>
double consensus_time(const MakeProto& make_proto, const Engine& engine,
                      Xoshiro256& rng) {
  auto proto = make_proto(rng);
  return engine(proto, rng).time;
}

/// Declares one protocol's three engine points (sequential,
/// superposition, heap); each point's finish appends its samples to
/// `times`.
template <typename MakeProto>
void compare_models(SweepRunner& sweep, const ExperimentContext& ctx,
                    std::vector<std::vector<double>>& times,
                    std::uint64_t sweep_point, MakeProto make_proto) {
  const auto add = [&](std::uint64_t seed_slot, auto engine) {
    sweep.add_point(
        ctx.reps, 1, ctx.seeds_for(sweep_point * 3 + seed_slot),
        [make_proto, engine](std::uint64_t, Xoshiro256& rng) {
          return std::vector<double>{consensus_time(make_proto, engine, rng)};
        },
        [&times](const auto& slots) { times.push_back(slots[0]); });
  };
  add(0, [](auto& proto, Xoshiro256& rng) {
    return run_sequential(proto, rng, 1e6);
  });
  add(1, [](auto& proto, Xoshiro256& rng) {
    return run_continuous(proto, rng, 1e6);
  });
  add(2, [](auto& proto, Xoshiro256& rng) {
    return run_continuous_heap(proto, rng, 1e6);
  });
}

int run_exp(ExperimentContext& ctx) {
  bench::banner(ctx, "E9 (model equivalence, ref [4])",
                "sequential, continuous-heap, and continuous-superposition "
                "asynchronous models give the same run time (ratios ~ 1)");

  const std::uint64_t n = ctx.args.get_u64("n", 1ull << 12);
  const CompleteGraph g(n);

  Table table("E9: consensus time across async engines  (n=" +
                  std::to_string(n) + ")",
              {"protocol", "seq_mean", "seq_ci95", "sup_mean", "sup_ci95",
               "heap_mean", "heap_ci95", "seq/sup", "heap/sup"});

  // All protocol x engine points on one job graph; finish callbacks run
  // in declaration order, so times[3 * p + e] holds protocol p's
  // samples on engine e.
  SweepRunner sweep(ctx.threads);
  std::vector<std::vector<double>> times;
  compare_models(sweep, ctx, times, 0, [&](Xoshiro256& rng) {
    return TwoChoicesAsync<CompleteGraph>(
        g, assign_two_colors(n, (n * 3) / 4, rng));
  });
  compare_models(sweep, ctx, times, 1, [&](Xoshiro256& rng) {
    return TwoChoicesAsync<CompleteGraph>(
        g, assign_plurality_bias(n, 8, n / 17, rng));
  });
  compare_models(sweep, ctx, times, 2, [&](Xoshiro256& rng) {
    return ThreeMajorityAsync<CompleteGraph>(
        g, assign_two_colors(n, (n * 3) / 4, rng));
  });
  compare_models(sweep, ctx, times, 3, [&](Xoshiro256& rng) {
    return VoterAsync<CompleteGraph>(
        g, assign_two_colors(n, (n * 7) / 8, rng));
  });
  sweep.run();

  const char* const names[] = {"two_choices (c1=3n/4)",
                               "two_choices k=8 tied",
                               "three_majority (c1=3n/4)", "voter (c1=7n/8)"};
  for (std::size_t p = 0; p < std::size(names); ++p) {
    const std::vector<double>* engine_times = &times[3 * p];
    ctx.record("sequential_time", {{"protocol", names[p]}}, engine_times[0]);
    ctx.record("superposition_time", {{"protocol", names[p]}},
               engine_times[1]);
    ctx.record("heap_time", {{"protocol", names[p]}}, engine_times[2]);
    const Summary s = summarize(engine_times[0]);
    const Summary c = summarize(engine_times[1]);
    const Summary h = summarize(engine_times[2]);
    table.row()
        .cell(names[p])
        .cell(s.mean, 2)
        .cell(s.ci95_halfwidth, 2)
        .cell(c.mean, 2)
        .cell(c.ci95_halfwidth, 2)
        .cell(h.mean, 2)
        .cell(h.ci95_halfwidth, 2)
        .cell(s.mean / c.mean, 3)
        .cell(h.mean / c.mean, 3);
  }

  table.print(std::cout, ctx.csv);
  return 0;
}

const ExperimentRegistrar kRegistrar{
    "model_equivalence",
    "E9 (ref [4]): the sequential uniform-node model and both continuous "
    "Poisson-clock engines (heap, superposition) give the same consensus "
    "time (ratios ~ 1)",
    "Runs the same Two-Choices clique workload on the sequential "
    "model and on both exact continuous engines (n-timer heap, "
    "superposition) and compares consensus-time distributions — the "
    "empirical side of the ref [4] equivalence and of the PR 2 engine "
    "rewrite. Records `sequential_time`, `heap_time`, and "
    "`superposition_time`; the unit-test twin (with KS statistics, "
    "including the zero-latency messaging driver) lives in "
    "tests/test_model_equivalence.cpp. Overrides: --n=.",
    /*default_reps=*/30, run_exp};

}  // namespace
