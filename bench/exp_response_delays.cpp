// E10 — §4 extension: exponentially distributed response delays with a
// constant rate should leave the asynchronous protocol's O(log n) run
// time intact (up to constants). The table sweeps the delay rate mu
// (mean delay 1/mu) on the delayed protocol, with the instant-response
// protocol as the baseline row.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/async_one_extra_bit.hpp"
#include "core/delayed.hpp"
#include "graph/complete.hpp"
#include "opinion/assignment.hpp"
#include "sim/continuous_engine.hpp"
#include "sim/latency.hpp"

using namespace plurality;

namespace {

int run_exp(ExperimentContext& ctx) {
  bench::banner(ctx, "E10 (response delays, §4)",
                "constant-mean exponential response delays preserve the "
                "Theta(log n) run time; only huge delays (>> block "
                "length) degrade the protocol");
  const bench::RunPlan plan =
      bench::make_plan(ctx, EngineKind::kSuperposition);

  const std::uint64_t n = ctx.args.get_u64("n", 1ull << 12);
  const CompleteGraph g(n);
  const std::uint32_t k = 4;
  const std::uint64_t bias = n / 4;  // comfortably in the theorem regime

  Table table("E10: async OneExtraBit under response delays  (n=" +
                  std::to_string(n) + ", k=4)",
              {"mean_delay", "mean_time", "ci95", "win_rate", "success"});

  // The instant baseline and the delay sweep on one job graph; records
  // and rows come from the finish callbacks in declaration order.
  SweepRunner sweep(ctx.threads);
  const auto add_row = [&](std::uint64_t sweep_point, std::string label,
                           double mean_delay, SweepRunner::Body body) {
    sweep.add_point(
        ctx.reps, 3, ctx.seeds_for(sweep_point), std::move(body),
        [&ctx, &table, n, k, label, mean_delay](const auto& slots) {
          ctx.record("time_vs_delay",
                     {{"n", n}, {"k", k}, {"mean_delay", mean_delay}},
                     slots[0]);
          const Summary time = summarize(slots[0]);
          table.row()
              .cell(label)
              .cell(time.mean, 1)
              .cell(time.ci95_halfwidth, 1)
              .cell(summarize(slots[1]).mean, 2)
              .cell(summarize(slots[2]).mean, 2);
        });
  };
  const auto outcome = [](const AsyncRunResult& result) {
    return std::vector<double>{
        result.time, (result.consensus && result.winner == 0) ? 1.0 : 0.0,
        result.consensus ? 1.0 : 0.0};
  };

  // Baseline: instant responses (the paper's base model).
  add_row(0, "0 (instant)", 0.0,
          [&ctx, &plan, &g, n, k, bias, outcome](std::uint64_t,
                                                 Xoshiro256& rng) {
            auto proto = AsyncOneExtraBit<CompleteGraph>::make(
                g, bench::place_on(ctx, g,
                                   counts_plurality_bias(n, k, bias), rng));
            return outcome(bench::run(plan, proto, rng, 1e5));
          });

  std::uint64_t sweep_point = 1;
  for (const double rate : {20.0, 4.0, 1.0, 0.25}) {
    // The §4 delay law as a LatencyModel: the driver owns the draws,
    // the protocol no longer hand-rolls exponential delays.
    const ExponentialLatency latency(1.0 / rate);
    char label[32];
    std::snprintf(label, sizeof label, "%.2f", 1.0 / rate);
    add_row(sweep_point++, label, 1.0 / rate,
            [&ctx, &plan, &g, n, k, bias, outcome,
             latency](std::uint64_t, Xoshiro256& rng) {
              auto proto = AsyncOneExtraBitDelayed<CompleteGraph>::make(
                  g, bench::place_on(ctx, g,
                                     counts_plurality_bias(n, k, bias),
                                     rng));
              return outcome(bench::run(plan, proto, latency, rng, 1e5));
            });
  }
  sweep.run();

  table.print(std::cout, ctx.csv);
  return 0;
}

const ExperimentRegistrar kRegistrar{
    "response_delays",
    "E10 (S4): exponential response delays with constant mean preserve "
    "the Theta(log n) run time of the async protocol",
    "Runs the asynchronous OneExtraBit protocol on the complete graph "
    "(k=4 colors, bias n/4) with every two-choices/bit/sync/endgame "
    "answer delayed by an ExponentialLatency model, sweeping the mean "
    "delay 1/mu over {0 (instant baseline), 0.05, 0.25, 1, 4} time "
    "units. Records the `time_vs_delay` series (consensus time, "
    "plurality win rate, success rate per mean delay). Overrides: "
    "--n=. The paper's S4 conjecture holds when the delayed rows stay "
    "within a constant factor of the instant baseline.",
    /*default_reps=*/5, run_exp};

}  // namespace
