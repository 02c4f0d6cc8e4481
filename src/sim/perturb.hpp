#pragma once

/// \file perturb.hpp
/// Mid-run perturbations: the robustness layer behind `--perturb=`.
/// The paper assumes a fault-free, static population; the live-service
/// question is what consensus looks like under sustained interference.
/// Four perturbation kinds share one event-driven driver (Perturber)
/// that every engine drains in event-time order:
///
///   - inject:    a Poisson(rate) arrival stream; each event re-colors
///                one live node (uniform by default, degree-weighted
///                under --perturb-target=hub) to a uniformly random
///                *different* color.
///   - crash:     crash-stop scheduled by *global time* — a
///                Poisson(rate) stream of single-node crash-stop events
///                starting at --perturb-start. Unlike CrashAdapter's
///                own-tick deadlines this composes with the sharded and
///                queued engines and with random latency, because the
///                schedule lives in global time, not per-node clocks.
///                A crashed node keeps its color readable (memory
///                intact, clock dead) and the engines suppress its
///                ticks via allows_tick().
///   - churn:     a Poisson(rate) stream of node replacements: the
///                departing node's slot is taken by a fresh arrival
///                with an independent uniform color, and its incident
///                edges are rewired degree-preservingly over the CSR
///                topology (double-edge swaps via ChurnableCsr). On the
///                implicit complete view the rewiring is the identity
///                (K_n is invariant under degree-preserving rewiring),
///                so churn degenerates to the color reset — truthfully.
///   - adversary: the late adversary of Robinson–Scheideler–Setzer
///                ("Breaking the Omega~(sqrt n) Barrier"): every
///                --perturb-interval time units it observes the
///                support counts and re-colors up to ceil(rate *
///                interval) of the highest-impact current-plurality
///                nodes to the runner-up color, until its
///                --perturb-budget is exhausted. "Highest-impact" =
///                most same-color neighbors (a stale seed deep in the
///                winner's bulk survives longest); without stored
///                adjacency (the clique) position is irrelevant by
///                vertex-transitivity and the picks are uniform.
///                Strictly stronger than the static
///                adversarial_boundary placement: it spends the same
///                corruption count *adaptively*, timed against the
///                observed run (experiment R2 measures the gap).
///
/// Determinism: the Perturber owns its RNG stream (seeded once at
/// construction), so for a fixed seed the generated event times and the
/// state-independent choices (inject/crash/churn victims, colors,
/// rewirings) are identical across engines and shard counts; the
/// adversary's victims are adaptive and deterministic per engine for a
/// fixed (seed, shards). Single-stream engines drain events at exact
/// event times; the sharded engines drain at epoch boundaries on the
/// main thread (workers parked), which quantizes application times to
/// epochs without breaking determinism.
///
/// Stop condition: perturbations can *break* consensus after it forms,
/// so engines keep running while the driver is not exhausted() — a run
/// ends at done() only once no further events can arrive (budget
/// spent / no live nodes left), else at the horizon.

#include <concepts>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"
#include "opinion/table.hpp"
#include "rng/xoshiro256.hpp"
#include "support/assert.hpp"

namespace plurality {

enum class PerturbKind : std::uint8_t {
  kNone,       ///< inert driver; the default
  kInject,     ///< Poisson opinion-injection stream
  kCrash,      ///< crash-stop by global time
  kChurn,      ///< node replacement + degree-preserving rewiring
  kAdversary,  ///< budgeted adaptive late adversary
};

inline const char* perturb_kind_name(PerturbKind kind) noexcept {
  switch (kind) {
    case PerturbKind::kNone: return "none";
    case PerturbKind::kInject: return "inject";
    case PerturbKind::kCrash: return "crash";
    case PerturbKind::kChurn: return "churn";
    case PerturbKind::kAdversary: return "adversary";
  }
  return "unknown";
}

/// Parses a `--perturb=` value; throws ContractViolation (naming the
/// offending text) on anything unrecognized.
PerturbKind parse_perturb_kind(const std::string& name);

/// How opinion injections pick their victims.
enum class PerturbTarget : std::uint8_t {
  kUniform,  ///< uniform over live nodes
  kHub,      ///< degree-weighted over live nodes (hits hubs)
};

PerturbTarget parse_perturb_target(const std::string& name);

inline const char* perturb_target_name(PerturbTarget target) noexcept {
  return target == PerturbTarget::kHub ? "hub" : "uniform";
}

/// The resolved `--perturb*` flag family. Parsed and validated on the
/// main thread by ExperimentContext (a throw from a worker lambda would
/// std::terminate instead of reporting).
struct PerturbSpec {
  PerturbKind kind = PerturbKind::kNone;
  double rate = 1.0;       ///< --perturb-rate: events per time unit
  std::uint64_t budget = 0;  ///< --perturb-budget: total events; 0 = unlimited
                             ///< (the adversary requires an explicit budget)
  double start = 0.0;      ///< --perturb-start: first possible event time
  double interval = 1.0;   ///< --perturb-interval: adversary observation cadence
  PerturbTarget target = PerturbTarget::kUniform;  ///< --perturb-target=

  /// Throws ContractViolation naming the offending flag(s).
  void validate() const;

  /// Short human label for banners: e.g. "inject(rate=2,budget=48)".
  std::string label() const;
};

/// One applied perturbation event (observation sweeps that corrupt m
/// nodes log m entries at the same time stamp).
struct PerturbEvent {
  double time = 0.0;
  PerturbKind kind = PerturbKind::kNone;
  NodeId node = 0;
  ColorId color = 0;  ///< new color (inject/churn/adversary); the frozen
                      ///< color for crash events
};

/// A mutable, degree-preserving copy of an explicit-adjacency CSR
/// topology, for churn. Owns its offsets/edges arrays plus a mirror
/// index (slot of u->v  <->  slot of v->u) so a double-edge swap is
/// O(1) bookkeeping + an O(deg) multi-edge check. The borrowed view()
/// aliases the owned arrays: protocols instantiated over it observe
/// rewires in place (degrees and offsets never change, so the spans
/// stay valid). Non-movable for that reason.
///
/// Contract: the source must have stored rows (not the implicit
/// complete view — K_n needs no rewiring; see the file header).
class ChurnableCsr {
 public:
  explicit ChurnableCsr(const CsrTopology& source);

  ChurnableCsr(const ChurnableCsr&) = delete;
  ChurnableCsr& operator=(const ChurnableCsr&) = delete;

  const CsrTopology& view() const noexcept { return view_; }

  std::uint64_t num_nodes() const noexcept { return offsets_.size() - 1; }
  std::uint64_t degree(NodeId u) const {
    PC_EXPECTS(u + 1 < offsets_.size());
    return offsets_[u + 1] - offsets_[u];
  }

  /// Replaces node u's incident edges by degree-preserving double-edge
  /// swaps against uniformly random partner slots (one attempted swap
  /// per incident edge, a few retries each; swaps that would create a
  /// self-loop or multi-edge are rejected). Degrees are invariant.
  void rewire_node(NodeId u, Xoshiro256& rng);

  /// Structural invariants: mirror involution, symmetry, and no *new*
  /// self-loops or duplicate edges beyond the source graph's. A
  /// random-regular source with d close to n may keep defects
  /// (graph/random_regular.hpp); swaps only ever remove them.
  /// O(E log E); for tests.
  bool check_consistent() const;

 private:
  bool try_swap(std::uint64_t slot_a, std::uint64_t slot_b);
  bool has_edge(NodeId u, NodeId v) const;
  std::uint64_t count_defect_slots() const;

  std::vector<std::uint64_t> offsets_;
  std::vector<NodeId> edges_;
  std::vector<std::uint64_t> mirror_;  ///< slot -> slot of reverse edge
  std::vector<NodeId> owner_;          ///< slot -> source node
  std::uint64_t initial_defect_slots_ = 0;
  CsrTopology view_;
};

/// The runtime driver bound to one run: generates the event stream of
/// one PerturbSpec and applies events to whatever color representation
/// the engine keeps (via the set_color callback). Engines consult
/// next_time() to drain in event-time order, allows_tick() to suppress
/// crashed nodes, and exhausted() for the stop condition (see file
/// header).
class Perturber {
 public:
  using SetColor = std::function<void(NodeId, ColorId)>;

  /// `topology` (optional) powers the adversary's impact ranking and
  /// the hub-targeted injections; `churn` is required for kChurn unless
  /// the topology is the implicit complete view. Both must outlive the
  /// Perturber. `num_colors` is the color universe injections and the
  /// adversary draw replacement colors from (>= 2 for the mutating
  /// kinds).
  Perturber(const PerturbSpec& spec, std::uint64_t n, ColorId num_colors,
            std::uint64_t seed, const CsrTopology* topology = nullptr,
            ChurnableCsr* churn = nullptr);

  /// Time of the next pending event; +infinity when exhausted.
  double next_time() const noexcept { return next_time_; }

  /// False while events can still arrive (engines must keep running
  /// past transient consensus until this flips).
  bool exhausted() const noexcept { return remaining_ == 0; }

  /// False for crashed nodes: the engine must swallow their ticks
  /// (time still advances — the clock is dead, not the slot). Stable
  /// between drains, so sharded workers may read it concurrently
  /// within an epoch.
  bool allows_tick(NodeId u) const noexcept {
    return crashed_.empty() || !crashed_[u];
  }

  bool is_crashed(NodeId u) const {
    PC_EXPECTS(u < n_);
    return !crashed_.empty() && crashed_[u];
  }

  std::uint64_t crashed_count() const noexcept { return crashed_count_; }

  /// Every applied event, in application order.
  const std::vector<PerturbEvent>& events() const noexcept { return log_; }

  /// Applies all events with time <= now against `table` (reads) via
  /// `set_color` (writes — the engine's representation: the table
  /// alone for single-stream engines, table + live + snapshot for the
  /// sharded ones). Must be called from the engine's main thread with
  /// workers parked.
  void drain_until(double now, const OpinionTable& table,
                   const SetColor& set_color);

  /// Convenience for single-stream engines: writes through
  /// table.set_color directly.
  void drain_until(double now, OpinionTable& table);

  /// Fraction of live (non-crashed) nodes on the live-plurality color;
  /// 1.0 when everyone crashed (vacuous). O(num_colors): crashed
  /// nodes' colors are frozen, so per-color crashed support is
  /// maintained incrementally on crash transitions and live support is
  /// table.support(c) minus it.
  double live_agreement(const OpinionTable& table) const;

 private:
  void schedule_first();
  void advance_schedule();
  void apply_poisson_event(const OpinionTable& table,
                           const SetColor& set_color);
  void apply_adversary_sweep(const OpinionTable& table,
                             const SetColor& set_color);
  NodeId pick_live_uniform();
  NodeId pick_live_by_degree();
  ColorId different_color(ColorId current);
  void mark_crashed(NodeId u, const OpinionTable& table);

  PerturbSpec spec_;
  std::uint64_t n_;
  ColorId num_colors_;
  Xoshiro256 rng_;
  const CsrTopology* topo_;
  ChurnableCsr* churn_;
  double next_time_ = 0.0;
  std::uint64_t remaining_ = 0;  ///< events left; 0 = exhausted
  std::uint64_t crashed_count_ = 0;
  std::vector<std::uint8_t> crashed_;
  std::vector<std::uint64_t> crashed_support_;  ///< per frozen color
  std::vector<PerturbEvent> log_;
};

/// One point of the recovery time series.
struct AgreementPoint {
  double time = 0.0;
  double agreement = 0.0;  ///< live-plurality fraction among live nodes
};

/// Observer recording live agreement each sample — the recovery time
/// series of a perturbed run (pair with the run's Perturber so crashed
/// nodes are excluded). Works with any protocol exposing table().
class AgreementTrace {
 public:
  explicit AgreementTrace(const Perturber& perturb) : perturb_(&perturb) {}

  template <typename P>
  void operator()(double time, const P& proto) {
    points_.push_back({time, perturb_->live_agreement(proto.table())});
  }

  const std::vector<AgreementPoint>& points() const noexcept {
    return points_;
  }

 private:
  const Perturber* perturb_;
  std::vector<AgreementPoint> points_;
};

/// Time-to-reconverge after each perturbation event: for event i at
/// time t_i, the delay until the trace first reports agreement >=
/// `threshold` at some time >= t_i. Events the run never recovered
/// from are censored at the trace end (their entry is trace_end - t_i).
/// Requires a non-empty, time-sorted trace.
std::vector<double> recovery_times(const std::vector<PerturbEvent>& events,
                                   const std::vector<AgreementPoint>& trace,
                                   double threshold);

/// The trace's agreement at probe time `t`: the last point with time
/// <= t (the first point when t precedes the trace). Requires a
/// non-empty, time-sorted trace.
double agreement_at(const std::vector<AgreementPoint>& trace, double t);

namespace detail {

/// The single-stream engines' drain hook: perturbation writes go
/// through the protocol's own table, so the protocol must expose
/// mutable_table(). Protocols without it (stateful adapters like
/// CrashAdapter) cannot be perturbed — a loud contract violation, not
/// a silent no-op.
template <typename P>
void drain_perturbations(Perturber* perturb, double now, P& proto) {
  if (perturb == nullptr) return;
  if constexpr (requires(P p) {
                  { p.mutable_table() } -> std::same_as<OpinionTable&>;
                }) {
    perturb->drain_until(now, proto.mutable_table());
  } else {
    throw ContractViolation(
        "--perturb= requires a protocol exposing mutable_table(); this "
        "protocol keeps private per-node state the perturbation layer "
        "cannot re-color");
  }
}

}  // namespace detail

}  // namespace plurality
