// B2 — robustness probe (ours): crash-stop faults. A fraction of nodes
// silently stops ticking mid-run (their colors stay readable — the
// adversarial case). Global consensus becomes unreachable once a
// crashed node pins a dead color, so the table reports *live
// agreement*: the fraction of surviving nodes on the live-plurality
// color at the horizon, for both async Two-Choices and the phased
// protocol. The crashes are the perturbation layer's crash-stop
// schedule (--perturb=crash, sim/perturb.hpp): global-time events that
// every engine drains, so B2 runs on any --graph= family, any
// --engine= and any --latency= model (the phased protocol falls back
// from sharded to superposition and ignores latency; the record's
// engine_effective and latency_effective say what actually ran).

#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "core/async_one_extra_bit.hpp"
#include "core/two_choices.hpp"
#include "graph/csr.hpp"
#include "opinion/assignment.hpp"
#include "sim/perturb.hpp"

using namespace plurality;

namespace {

int run_exp(ExperimentContext& ctx) {
  bench::banner(ctx, "B2 (crash faults)",
                "survivors should still agree (live agreement ~ 1) for "
                "moderate crash fractions; crashed nodes pin stale "
                "colors so global consensus is lost");
  bench::RunPlan plan = bench::make_plan(ctx, EngineKind::kSequential,
                                         GraphKind::kComplete,
                                         PerturbKind::kCrash);
  if (plan.perturb.kind != PerturbKind::kCrash) {
    throw ContractViolation(
        std::string("--perturb=") + perturb_kind_name(plan.perturb.kind) +
        " is not supported by crash_faults; it runs only --perturb=crash");
  }
  for (const char* flag : {"perturb-rate", "perturb-budget"}) {
    if (ctx.args.has_flag(flag)) {
      throw ContractViolation(
          std::string("--") + flag +
          " is set per crash fraction f by crash_faults (budget = "
          "round(f n), rate = f n); pass only --perturb-start=");
    }
  }
  if (!ctx.args.has_flag("perturb-start")) plan.perturb.start = 50.0;

  const std::uint64_t n = ctx.args.get_u64("n", 1ull << 12);
  Xoshiro256 build_rng(ctx.master_seed);
  const AnyGraph any = bench::topology(plan, n, build_rng);
  const CsrTopology csr = make_csr_view(any);
  const std::uint64_t n_eff = csr.num_nodes();
  const std::uint32_t k = 4;
  const std::uint64_t bias = n_eff / 4;

  // The resolved fault parameters, in the record's params block: the
  // raw-args echo only carries what was explicitly passed.
  ctx.note_param("perturb-start", JsonValue(plan.perturb.start));
  ctx.note_param("crash_fracs", JsonValue("0,0.05,0.1,0.25,0.5"));

  char start_text[32];
  std::snprintf(start_text, sizeof start_text, "%g", plan.perturb.start);
  Table table("B2: live agreement under crash-stop faults  (" +
                  plan.graph.label() + ", n=" + std::to_string(n_eff) +
                  ", k=4, crashes from time " + start_text + ")",
              {"crash_frac", "protocol", "live_agree", "ci95",
               "global_consensus"});

  // Every crash-fraction x protocol point on one job graph; records and
  // rows come from the finish callbacks in declaration order.
  SweepRunner sweep(ctx.threads);
  std::uint64_t sweep_point = 0;
  for (const double fraction : {0.0, 0.05, 0.1, 0.25, 0.5}) {
    // round(f n) victims crash at rate f n from --perturb-start, so
    // all of them are down about one time unit later. A point with no
    // victims attaches no perturber (a crash budget of 0 would mean
    // unlimited); its inert driver still answers live_agreement.
    bench::RunPlan point_plan = plan;
    const double victims = fraction * static_cast<double>(n_eff);
    point_plan.perturb.budget =
        static_cast<std::uint64_t>(std::llround(victims));
    point_plan.perturb.rate = victims;
    if (point_plan.perturb.budget == 0) {
      point_plan.perturb.kind = PerturbKind::kNone;
    }
    for (const bool phased : {false, true}) {
      const char* protocol =
          phased ? "async_oneextrabit" : "async_two_choices";
      sweep.add_point(
          ctx.reps, 2, ctx.seeds_for(sweep_point++),
          [&ctx, &any, &csr, point_plan, n_eff, k, bias,
           phased](std::uint64_t, Xoshiro256& rng) {
            auto workload = bench::place_on(
                ctx, any, counts_plurality_bias(n_eff, k, bias), rng);
            Perturber perturb =
                bench::make_perturber(point_plan, n_eff, k, rng, &csr);
            Perturber* attached =
                point_plan.perturb.kind == PerturbKind::kNone ? nullptr
                                                              : &perturb;
            const auto run_with = [&](auto& proto) {
              const auto result = bench::run(point_plan, proto, rng, 2000.0,
                                             NullObserver{}, 1.0, attached);
              return std::vector<double>{
                  perturb.live_agreement(proto.table()),
                  result.consensus ? 1.0 : 0.0};
            };
            if (phased) {
              auto proto = AsyncOneExtraBit<CsrTopology>::make(
                  csr, std::move(workload));
              return run_with(proto);
            }
            TwoChoicesAsync<CsrTopology> proto(csr, std::move(workload));
            return run_with(proto);
          },
          [&ctx, &table, n_eff, fraction, protocol](const auto& slots) {
            ctx.record("live_agreement",
                       {{"n", n_eff},
                        {"crash_frac", fraction},
                        {"protocol", protocol}},
                       slots[0]);
            const Summary agree = summarize(slots[0]);
            table.row()
                .cell(fraction, 2)
                .cell(protocol)
                .cell(agree.mean, 4)
                .cell(agree.ci95_halfwidth, 4)
                .cell(summarize(slots[1]).mean, 2);
          });
    }
  }
  sweep.run();
  table.print(std::cout, ctx.csv);
  return 0;
}

const ExperimentRegistrar kRegistrar{
    "crash_faults",
    "B2 (robustness): live agreement among survivors under crash-stop "
    "faults, async Two-Choices vs the phased protocol",
    "Robustness probe: crashes a sweep of node fractions f through the "
    "perturbation layer's crash-stop schedule (--perturb=crash, the "
    "default and the only kind accepted): round(f n) uniform victims "
    "crash at rate f n from global time --perturb-start= (default 50), "
    "so all are down about one time unit later; crashed nodes stop "
    "ticking and keep their color readable. Measures whether the "
    "survivors still agree, for plain async Two-Choices and the phased "
    "OneExtraBit protocol, on any --graph= family, --engine= and "
    "--latency= model (the phased protocol is not shardable and has no "
    "query/apply split: it falls back to superposition with instant "
    "responses; engine_effective and latency_effective record what "
    "ran). Records `live_agreement` (fraction of live nodes on the "
    "live-plurality color) per crash fraction and protocol; the "
    "resolved perturb-start and the crash_frac sweep land in the params "
    "block. --perturb-rate= and --perturb-budget= are rejected (each "
    "crash fraction sets both). Overrides: --n=, --perturb-start=, "
    "--graph=, --engine=, --latency=, --placement=.",
    /*default_reps=*/5, run_exp};

}  // namespace
