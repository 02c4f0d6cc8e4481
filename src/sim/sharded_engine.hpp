#pragma once

/// \file sharded_engine.hpp
/// A parallel tick engine for big-n asynchronous runs: the node set is
/// partitioned into T contiguous shards, each driven by its own
/// xoshiro256 stream (SplitMix64-derived from the engine seed, so a run
/// is deterministic for a fixed seed and shard count regardless of
/// thread scheduling).
///
/// Time advances in *epochs* of length `epoch_length` (capped by the
/// next sample boundary). By superposition, the number of ticks a shard
/// of n_s nodes performs in an epoch of length dt is Poisson(n_s * dt),
/// and each tick hits a uniform node of the shard. Within an epoch
/// every shard:
///   - writes only its own nodes' colors (disjoint regions, no locks),
///   - reads its own nodes *live* and foreign nodes from the epoch-start
///     snapshot (at most one epoch stale),
///   - accumulates a per-color support delta and a changed-node log.
/// At the epoch join the deltas are merged serially, in shard order,
/// into the shared OpinionTable (O(changes + colors), see
/// OpinionTable::merge_shard_deltas), the snapshot absorbs the changes,
/// and done() is polled; the observer fires at `sample_every`
/// boundaries as in the other engines.
///
/// Scheduling: each epoch's shards run as one fork-join on the process
/// executor (jobs::Executor::parallel_for) — the caller claims shards
/// alongside helper jobs on the executor's workers, so a run nested in
/// a sweep leaf shares the same --jobs= threads as the sweep, and
/// under --jobs=1 every shard runs inline on the caller. The shard
/// count keys the trajectory (per-shard RNG streams, ranges, merge
/// order); which thread runs which shard never does, so results are
/// bit-identical for every worker count.
///
/// Memory layout (opinion/packed.hpp): the engine's live and snapshot
/// color arrays are *packed* at the table's resolved u8/u16/u32 width
/// in 64-byte-aligned slabs, and the epoch body is instantiated once
/// per width with typed pointers — a k <= 256 run streams 1 byte per
/// node per array instead of 4. Per-shard support deltas live in one
/// cache-line-padded slab (ShardDeltaSlab) so workers never false-share
/// counter lines. Width never touches an RNG stream: trajectories are
/// bit-identical across widths for a fixed (seed, shards).
///
/// EngineTuning composes three orthogonal performance/exactness knobs:
///   - sampling (--sampling=scalar|batch): batch mode draws each
///     epoch's node indices through rng/batch.hpp's lane-parallel
///     Xoshiro256Block (a per-shard stream separate from the shard's
///     scalar stream, derived from the same SeedSequence) instead of
///     one scalar draw per tick. Statistically equivalent, not
///     bit-identical — the default stays scalar so baselines survive;
///   - numa (--numa=off|firsttouch|bind): first-touch initialization
///     of live/snapshot/delta arrays in per-shard executor jobs, and
///     optional pinning of the executor's workers (sim/numa.hpp).
///     Trajectory-neutral; off-Linux, bind degrades to firsttouch;
///   - exact_reads (--exact-reads): replaces the epoch-stale foreign
///     reads with a distribution-*exact* two-phase schedule — see
///     run_sharded_exact below — trading parallel tick application for
///     parallel randomness generation.
///
/// Topology: protocols sample neighbors themselves (propose/query take
/// the shard's RNG), so the engine runs on *any* GraphTopology — the
/// clique, and every factory family, ideally through the flat
/// graph/csr.hpp view, which shares one immutable structure across all
/// shard jobs.
///
/// The foreign-read staleness is the one deliberate deviation from the
/// exact process; shrinking `epoch_length` shrinks it (at the cost of
/// more barriers), `exact_reads` removes it entirely, and the engine
/// equivalence tests pin the consensus-time agreement statistically.
///
/// Edge latencies (sim/latency.hpp) run on run_sharded_queued: any
/// sampleable model (const, exp, pareto, aging) exactly, via per-shard
/// delivery queues — a query's answer carries the colors read at query
/// time and is applied at query + delay, under the blocking or
/// fire-and-forget discipline. The querier and the recipient of the
/// answer are the same node, so deliveries never cross shards and the
/// epoch merge stays deterministic.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "jobs/executor.hpp"
#include "opinion/packed.hpp"
#include "rng/batch.hpp"
#include "rng/distributions.hpp"
#include "rng/seed.hpp"
#include "sim/concepts.hpp"
#include "sim/event_queue.hpp"
#include "sim/latency.hpp"
#include "sim/numa.hpp"
#include "sim/observers.hpp"
#include "sim/perturb.hpp"
#include "sim/result.hpp"
#include "support/assert.hpp"
#include "trace/trace.hpp"

namespace plurality {

/// The sharded engine's performance/exactness knobs (see file header).
/// The default tuple is the historical engine: scalar draws, main-
/// thread allocation, epoch-stale foreign reads — bit-identical to
/// every checked-in baseline.
struct EngineTuning {
  SamplingMode sampling = SamplingMode::kScalar;
  NumaMode numa = NumaMode::kOff;
  bool exact_reads = false;
};

/// Read view handed to ShardableProtocol::propose: live colors for the
/// calling shard's own nodes, the epoch-start snapshot for everyone
/// else. Templated over the packed element width; protocols' propose()
/// is a template over the view type, so one protocol serves every
/// width.
template <typename T>
class PackedShardView {
 public:
  PackedShardView(const T* live, const T* snapshot, NodeId lo,
                  NodeId hi) noexcept
      : live_(live), snapshot_(snapshot), lo_(lo), hi_(hi) {}

  ColorId color(NodeId v) const noexcept {
    return (v >= lo_ && v < hi_) ? live_[v] : snapshot_[v];
  }

 private:
  const T* live_;
  const T* snapshot_;
  NodeId lo_;
  NodeId hi_;
};

/// The view type the concepts below are checked against (protocols take
/// the view as a template parameter, so satisfying the u32 form implies
/// the u8/u16 forms).
using ShardView = PackedShardView<ColorId>;

/// A protocol the sharded engine can drive: its tick must be expressible
/// as a pure color proposal off a read view (no side effects beyond the
/// returned color), and the engine needs write access to the table for
/// the epoch merges.
template <typename P>
concept ShardableProtocol =
    AsyncProtocol<P> &&
    requires(P p, const P cp, NodeId u, const ShardView& view,
             Xoshiro256& rng) {
      { cp.propose(u, view, rng) } -> std::convertible_to<ColorId>;
      { p.mutable_table() } -> std::same_as<OpinionTable&>;
    };

/// A shardable protocol whose tick additionally splits at the
/// query/response boundary, so the sharded engine can delay the answer
/// under a latency model (run_sharded_queued): query() reads the
/// sampled neighbors' colors at query time, apply_query() resolves the
/// update rule against the node's current color at delivery time.
template <typename P>
concept DelayedShardableProtocol =
    ShardableProtocol<P> &&
    requires(const P cp, NodeId u, const ShardView& view, Xoshiro256& rng,
             const typename P::Query& q) {
      typename P::Query;
      { cp.query(u, view, rng) } -> std::same_as<typename P::Query>;
      { cp.apply_query(u, q, view) } -> std::convertible_to<ColorId>;
    };

namespace detail {

/// Contiguous as-equal-as-possible shard ranges over n nodes.
inline std::pair<NodeId, NodeId> shard_range(std::uint64_t n,
                                             std::uint64_t shard,
                                             std::uint64_t shards) noexcept {
  return {static_cast<NodeId>(n * shard / shards),
          static_cast<NodeId>(n * (shard + 1) / shards)};
}

/// The resolved shard count: 0 picks the hardware concurrency, and the
/// count never exceeds the node count.
inline std::uint64_t resolve_shards(unsigned num_shards,
                                    std::uint64_t n) noexcept {
  if (num_shards == 0) {
    num_shards = std::max(1u, std::thread::hardware_concurrency());
  }
  return std::min<std::uint64_t>(num_shards, n);
}

/// Node draws for one epoch are pulled through a bounded per-shard
/// buffer in batch mode, so the resident cost is constant per shard
/// instead of one word per tick.
inline constexpr std::size_t kNodeBatch = 4096;

/// The live/snapshot pair of one sharded run, built according to the
/// NUMA mode: `off` packs both on the calling thread; the first-touch
/// modes return *uninitialized* slabs that first_touch() fills.
struct EngineBuffers {
  PackedColors live;
  PackedColors snapshot;
};

inline EngineBuffers make_buffers(const PackedColors& source,
                                  NumaMode numa) {
  EngineBuffers out;
  if (numa == NumaMode::kOff) {
    out.live = source.clone();
    out.snapshot = source.clone();
  } else {
    out.live = PackedColors::uninitialized(source.size(), source.width());
    out.snapshot =
        PackedColors::uninitialized(source.size(), source.width());
  }
  return out;
}

/// The first-touch pass (any NumaMode but kOff): one job per shard
/// performs the first write to the shard's ranges of live and snapshot,
/// to its delta row, and whatever `extra(shard)` initializes, so those
/// pages land on the NUMA node of the thread that ran the job. Under
/// kBind an executor worker pins itself first (numa::pin_worker).
template <typename Shard, typename Extra>
void first_touch(jobs::Executor& executor, NumaMode mode,
                 const PackedColors& source, EngineBuffers& buffers,
                 ShardDeltaSlab& deltas, std::vector<Shard>& pool,
                 Extra&& extra) {
  if (mode == NumaMode::kOff) return;
  executor.parallel_for(pool.size(), [&](std::size_t s) {
    if (mode == NumaMode::kBind) numa::pin_worker(executor);
    Shard& shard = pool[s];
    buffers.live.copy_range_from(source, shard.lo, shard.hi);
    buffers.snapshot.copy_range_from(buffers.live, shard.lo, shard.hi);
    deltas.clear(s);
    extra(shard);
  });
}

/// The serial epoch merge, in shard order: each shard's support delta
/// and changed-node log fold into the table, the snapshot absorbs the
/// changes, and the per-epoch state resets. Returns the epoch's ticks.
template <typename T, typename Shard>
std::uint64_t merge_epoch(OpinionTable& table, EngineBuffers& buffers,
                          ShardDeltaSlab& deltas,
                          std::vector<Shard>& pool) {
  const T* live = buffers.live.template data<T>();
  T* snap = buffers.snapshot.template data<T>();
  std::uint64_t ticks = 0;
  for (std::uint64_t s = 0; s < pool.size(); ++s) {
    Shard& shard = pool[s];
    table.merge_shard_deltas(shard.changed, buffers.live, deltas.shard(s));
    for (const NodeId u : shard.changed) snap[u] = live[u];
    shard.changed.clear();
    deltas.clear(s);
    ticks += shard.ticks;
    shard.ticks = 0;
  }
  return ticks;
}

/// The epoch schedule every sharded driver shares: epochs of
/// `epoch_length`, truncated at the next sample boundary. After each
/// epoch — every shard job joined — perturbation events up to the
/// boundary drain through `set_color` on the calling thread, done() is
/// polled, and the observer fires at sample boundaries.
/// `run_epoch(t0, dt)` runs one epoch and returns its tick count.
template <typename P, typename Obs, typename Epoch>
AsyncRunResult run_epochs(P& proto, double max_time, Obs&& obs,
                          double sample_every, double epoch_length,
                          Perturber* perturb,
                          const Perturber::SetColor& set_color,
                          Epoch&& run_epoch) {
  const auto running = [&] {
    return !(proto.done() &&
             (perturb == nullptr || perturb->exhausted()));
  };
  AsyncRunResult result;
  double now = 0.0;
  obs(now, proto);
  while (now < max_time && running()) {
    const double sample_end = std::min(now + sample_every, max_time);
    while (now < sample_end && running()) {
      const double dt = std::min(epoch_length, sample_end - now);
      if (!(dt > 0.0)) break;  // floating-point residue at the boundary
      result.ticks += run_epoch(now, dt);
      now += dt;
      if (perturb != nullptr && perturb->next_time() <= now) {
        perturb->drain_until(now, proto.table(), set_color);
      }
    }
    if (now < max_time && running()) obs(now, proto);
  }
  result.time = proto.done() ? now : max_time;
  obs(result.time, proto);
  result.consensus = proto.table().has_consensus();
  if (result.consensus) result.winner = proto.table().consensus_color();
  return result;
}

/// The width-typed body of run_sharded (dispatched once per run on the
/// table's resolved width; see run_sharded below for the contract).
template <typename T, typename P, typename Obs>
AsyncRunResult run_sharded_impl(P& proto, std::uint64_t seed,
                                std::uint64_t shards, double max_time,
                                Obs&& obs, double sample_every,
                                double epoch_length, Perturber* perturb,
                                const EngineTuning& tuning) {
  const std::uint64_t n = proto.num_nodes();
  const bool batch = tuning.sampling == SamplingMode::kBatch;
  jobs::Executor& executor = jobs::Executor::process();

  EngineBuffers buffers = make_buffers(proto.table().packed_colors(),
                                       tuning.numa);
  ShardDeltaSlab deltas(shards, proto.table().num_colors(),
                        /*deferred_init=*/tuning.numa != NumaMode::kOff);

  struct alignas(64) Shard {
    NodeId lo = 0;
    NodeId hi = 0;
    Xoshiro256 rng{0};
    std::vector<NodeId> changed;
    std::vector<NodeId> node_buf;  // batch mode: bounded draw buffer
    std::uint64_t ticks = 0;
  };
  const SeedSequence streams(seed);
  std::vector<Shard> pool(shards);
  std::vector<Xoshiro256Block> blocks;  // batch mode: per-shard streams
  if (batch) blocks.reserve(shards);
  for (std::uint64_t s = 0; s < shards; ++s) {
    std::tie(pool[s].lo, pool[s].hi) = detail::shard_range(n, s, shards);
    pool[s].rng = streams.make_rng(s);
    if (batch) {
      // A stream index disjoint from every shard's scalar stream: the
      // node-draw block and the protocol draws never share words.
      blocks.emplace_back(streams.stream(shards + s));
      pool[s].node_buf.resize(kNodeBatch);
    }
  }
  first_touch(executor, tuning.numa, proto.table().packed_colors(),
              buffers, deltas, pool, [](Shard&) {});

  double epoch_dt = 0.0;  // written before each fork, read by the jobs
  const std::function<void(std::size_t)> epoch_job = [&](std::size_t s) {
    Shard& shard = pool[s];
    const bool traced = trace::enabled();
    const std::int64_t span_t0 = traced ? trace::now_ns() : 0;
    const std::uint64_t n_s = shard.hi - shard.lo;
    const std::uint64_t ticks =
        poisson(shard.rng, static_cast<double>(n_s) * epoch_dt);
    T* colors = buffers.live.template data<T>();
    const PackedShardView<T> view(
        colors, buffers.snapshot.template data<T>(), shard.lo, shard.hi);
    const std::span<std::int64_t> delta = deltas.shard(s);
    std::uint64_t done = 0;
    while (done < ticks) {
      // Scalar mode runs one full-epoch chunk with per-tick draws;
      // batch mode refills the node buffer through the lane-parallel
      // block stream and consumes it in the same tick loop.
      const std::uint64_t chunk =
          batch ? std::min<std::uint64_t>(kNodeBatch, ticks - done)
                : ticks - done;
      if (batch) {
        blocks[s].fill_uniform_below(
            n_s, std::span<NodeId>(shard.node_buf.data(),
                                   static_cast<std::size_t>(chunk)));
      }
      for (std::uint64_t t = 0; t < chunk; ++t) {
        const auto u = static_cast<NodeId>(
            shard.lo + (batch ? shard.node_buf[t]
                              : static_cast<NodeId>(
                                    uniform_below(shard.rng, n_s))));
        // Crashed nodes' clocks are dead: the tick is swallowed (the
        // bitmap is stable within an epoch — drains happen between
        // epochs, after the join).
        if (perturb != nullptr && !perturb->allows_tick(u)) continue;
        const ColorId next = proto.propose(u, view, shard.rng);
        const ColorId old = colors[u];
        if (next != old) {
          colors[u] = static_cast<T>(next);
          --delta[old];
          ++delta[next];
          shard.changed.push_back(u);
        }
      }
      done += chunk;
    }
    shard.ticks += ticks;
    if (traced) {
      trace::local_sink().shard_span(span_t0, trace::now_ns() - span_t0,
                                     ticks);
    }
  };

  // Perturbation drains write table + live + snapshot together so the
  // next epoch's live and snapshot reads agree.
  return run_epochs(
      proto, max_time, std::forward<Obs>(obs), sample_every, epoch_length,
      perturb,
      [&](NodeId u, ColorId c) {
        proto.mutable_table().set_color(u, c);
        buffers.live.set(u, c);
        buffers.snapshot.set(u, c);
      },
      [&](double, double dt) {
        epoch_dt = dt;
        executor.parallel_for(shards, epoch_job);
        return merge_epoch<T>(proto.mutable_table(), buffers, deltas, pool);
      });
}

/// The distribution-exact sharded schedule (EngineTuning::exact_reads):
/// every epoch splits into two phases.
///
///   Phase 1 (parallel, one executor job per shard): each shard draws
///   its Poisson tick *count* for the epoch, then one (time, node) pair
///   per tick — time uniform on [t0, t0 + dt) (arrivals of a Poisson
///   process conditioned on their count are iid uniform), node uniform
///   in the shard — and sorts its pairs by time.
///
///   Phase 2 (serial, calling thread): the per-shard streams are k-way
///   merged in nondecreasing time (ties broken by shard index;
///   probability zero) and each tick's propose() runs against the
///   *fully live* table — no snapshot, no staleness — drawing protocol
///   randomness from the owning shard's stream in replay order.
///
/// The realized process is exactly the sequential superposition
/// process: Poisson counts + iid-uniform times + uniform nodes is the
/// Poisson(n) superposition restricted to the epoch, and live replay
/// applies every update in event order. What remains parallel is the
/// randomness generation and sorting; tick application is serial, so
/// this mode is the *ground truth* the epoch-stale default is measured
/// against (KS gates in tests/test_sharded_engine.cpp), not a fast
/// path. Perturbations drain in exact event order, as on the
/// single-stream engines. Deterministic for a fixed (seed, shards,
/// epoch_length). Batch sampling does not compose with this mode (the
/// registry rejects the flag pair); NumaMode has no arrays to place.
template <typename P, typename Obs>
AsyncRunResult run_sharded_exact(P& proto, std::uint64_t seed,
                                 std::uint64_t shards, double max_time,
                                 Obs&& obs, double sample_every,
                                 double epoch_length, Perturber* perturb) {
  const std::uint64_t n = proto.num_nodes();
  jobs::Executor& executor = jobs::Executor::process();

  struct Event {
    double time;
    NodeId node;
  };
  struct alignas(64) Shard {
    NodeId lo = 0;
    NodeId hi = 0;
    Xoshiro256 rng{0};
    std::vector<Event> events;
  };
  const SeedSequence streams(seed);
  std::vector<Shard> pool(shards);
  for (std::uint64_t s = 0; s < shards; ++s) {
    std::tie(pool[s].lo, pool[s].hi) = detail::shard_range(n, s, shards);
    pool[s].rng = streams.make_rng(s);
  }

  double epoch_t0 = 0.0;  // written before each fork, read by the jobs
  double epoch_dt = 0.0;
  const std::function<void(std::size_t)> generate_job = [&](std::size_t s) {
    Shard& shard = pool[s];
    const bool traced = trace::enabled();
    const std::int64_t span_t0 = traced ? trace::now_ns() : 0;
    const std::uint64_t n_s = shard.hi - shard.lo;
    const std::uint64_t ticks =
        poisson(shard.rng, static_cast<double>(n_s) * epoch_dt);
    shard.events.resize(ticks);
    for (auto& event : shard.events) {
      event.time = epoch_t0 + uniform_unit(shard.rng) * epoch_dt;
      event.node =
          static_cast<NodeId>(shard.lo + uniform_below(shard.rng, n_s));
    }
    // stable_sort: equal times (probability zero, but determinism must
    // not hinge on it) keep their generation order.
    std::stable_sort(
        shard.events.begin(), shard.events.end(),
        [](const Event& a, const Event& b) { return a.time < b.time; });
    if (traced) {
      trace::local_sink().shard_span(span_t0, trace::now_ns() - span_t0,
                                     ticks);
    }
  };

  /// propose() reads through the live table: no staleness by design.
  struct LiveTableView {
    const OpinionTable* table;
    ColorId color(NodeId v) const { return table->color(v); }
  };
  const Perturber::SetColor set_color = [&](NodeId u, ColorId c) {
    proto.mutable_table().set_color(u, c);
  };

  std::vector<std::size_t> head(shards, 0);
  const auto run_epoch = [&](double t0, double dt) {
    epoch_t0 = t0;
    epoch_dt = dt;
    executor.parallel_for(shards, generate_job);
    // Serial replay in event-time order against the live table.
    std::fill(head.begin(), head.end(), std::size_t{0});
    const LiveTableView view{&proto.table()};
    std::uint64_t ticks = 0;
    for (;;) {
      std::uint64_t next_shard = shards;
      double next_time = 0.0;
      for (std::uint64_t s = 0; s < shards; ++s) {
        if (head[s] == pool[s].events.size()) continue;
        const double t = pool[s].events[head[s]].time;
        if (next_shard == shards || t < next_time) {
          next_shard = s;
          next_time = t;
        }
      }
      if (next_shard == shards) break;
      const Event event = pool[next_shard].events[head[next_shard]++];
      ++ticks;
      if (perturb != nullptr && perturb->next_time() <= event.time) {
        perturb->drain_until(event.time, proto.table(), set_color);
      }
      if (perturb != nullptr && !perturb->allows_tick(event.node)) continue;
      const ColorId next =
          proto.propose(event.node, view, pool[next_shard].rng);
      if (next != proto.table().color(event.node)) {
        proto.mutable_table().set_color(event.node, next);
      }
    }
    for (auto& shard : pool) shard.events.clear();
    return ticks;
  };

  return run_epochs(proto, max_time, std::forward<Obs>(obs), sample_every,
                    epoch_length, perturb, set_color, run_epoch);
}

}  // namespace detail

/// Runs `proto` under Poisson(1) clocks until done() or `max_time`,
/// spread across `num_shards` shards (0 picks the hardware
/// concurrency). Deterministic for a fixed (seed, num_shards,
/// epoch_length, tuning) tuple — never for the thread count: each
/// epoch's shards run as one fork-join on the process executor
/// (jobs::Executor::parallel_for), inline under --jobs=1. done() is
/// polled at epoch boundaries only, so a run can overshoot consensus by
/// up to one epoch of ticks; when cut off by the horizon, result.time
/// reports `max_time`.
///
/// Same-shard neighbor reads are live, foreign reads are at most one
/// epoch stale; `tuning.exact_reads` removes the staleness entirely via
/// the two-phase exact schedule (detail::run_sharded_exact).
///
/// Perturbations (sim/perturb.hpp) drain on the *calling thread at
/// epoch boundaries*, after the shard jobs have joined: each event
/// applies at the first boundary at or after its time (epoch-quantized,
/// never reordered), writing table + live + snapshot together so the
/// next epoch's reads see it coherently. (In exact_reads mode they
/// drain in exact event order instead, like the single-stream engines.)
/// Crash suppression is a read-only bitmap lookup in the shard tick
/// loop, stable within an epoch. The run continues past transient
/// consensus until the driver is exhausted. Determinism for a fixed
/// (seed, num_shards) is preserved: the driver owns its RNG stream and
/// drains only between epochs.
template <ShardableProtocol P, typename Obs = NullObserver>
AsyncRunResult run_sharded(P& proto, std::uint64_t seed, unsigned num_shards,
                           double max_time, Obs&& obs = Obs{},
                           double sample_every = 1.0,
                           double epoch_length = 0.25,
                           Perturber* perturb = nullptr,
                           const EngineTuning& tuning = {}) {
  PC_EXPECTS(max_time > 0.0);
  PC_EXPECTS(sample_every > 0.0);
  PC_EXPECTS(epoch_length > 0.0);
  const std::uint64_t n = proto.num_nodes();
  PC_EXPECTS(n >= 1);
  const std::uint64_t shards = detail::resolve_shards(num_shards, n);
  if (tuning.exact_reads) {
    return detail::run_sharded_exact(proto, seed, shards, max_time,
                                     std::forward<Obs>(obs), sample_every,
                                     epoch_length, perturb);
  }
  // One width dispatch per run: the epoch body runs on typed pointers.
  switch (proto.table().width()) {
    case ColorWidth::kU8:
      return detail::run_sharded_impl<std::uint8_t>(
          proto, seed, shards, max_time, std::forward<Obs>(obs),
          sample_every, epoch_length, perturb, tuning);
    case ColorWidth::kU16:
      return detail::run_sharded_impl<std::uint16_t>(
          proto, seed, shards, max_time, std::forward<Obs>(obs),
          sample_every, epoch_length, perturb, tuning);
    case ColorWidth::kU32:
      return detail::run_sharded_impl<std::uint32_t>(
          proto, seed, shards, max_time, std::forward<Obs>(obs),
          sample_every, epoch_length, perturb, tuning);
  }
  throw ContractViolation("unreachable color width");
}

namespace detail {

/// The width-typed body of run_sharded_queued (see below).
template <typename T, typename P, typename Obs>
AsyncRunResult run_sharded_queued_impl(P& proto, const LatencyModel& latency,
                                       QueryDiscipline discipline,
                                       std::uint64_t seed,
                                       std::uint64_t shards, double max_time,
                                       Obs&& obs, double sample_every,
                                       double epoch_length,
                                       Perturber* perturb,
                                       const EngineTuning& tuning) {
  const std::uint64_t n = proto.num_nodes();
  const bool blocking = discipline == QueryDiscipline::kBlocking;
  const bool first_touched = tuning.numa != NumaMode::kOff;
  jobs::Executor& executor = jobs::Executor::process();

  EngineBuffers buffers = make_buffers(proto.table().packed_colors(),
                                       tuning.numa);
  ShardDeltaSlab deltas(shards, proto.table().num_colors(),
                        /*deferred_init=*/first_touched);

  struct Delivery {
    NodeId to;
    typename P::Query query;
  };
  struct alignas(64) Shard {
    NodeId lo = 0;
    NodeId hi = 0;
    Xoshiro256 rng{0};
    EventQueue<Delivery> deliveries;       // persists across epochs
    std::vector<std::uint8_t> pending;     // blocking: query in flight
    std::vector<NodeId> changed;
    std::uint64_t ticks = 0;
  };
  const SeedSequence streams(seed);
  std::vector<Shard> pool(shards);
  for (std::uint64_t s = 0; s < shards; ++s) {
    std::tie(pool[s].lo, pool[s].hi) = detail::shard_range(n, s, shards);
    pool[s].rng = streams.make_rng(s);
    if (blocking && !first_touched) {
      pool[s].pending.assign(pool[s].hi - pool[s].lo, 0);
    }
  }
  first_touch(executor, tuning.numa, proto.table().packed_colors(),
              buffers, deltas, pool, [&](Shard& shard) {
                if (blocking) shard.pending.assign(shard.hi - shard.lo, 0);
              });

  double epoch_t0 = 0.0;  // written before each fork, read by the jobs
  double epoch_dt = 0.0;
  const std::function<void(std::size_t)> epoch_job = [&](std::size_t s) {
    Shard& shard = pool[s];
    const bool traced = trace::enabled();
    const std::int64_t span_t0 = traced ? trace::now_ns() : 0;
    const std::uint64_t ticks_before = shard.ticks;
    std::uint64_t drained = 0;
    const std::uint64_t n_s = shard.hi - shard.lo;
    const double inv_rate = 1.0 / static_cast<double>(n_s);
    const double t_end = epoch_t0 + epoch_dt;
    T* colors = buffers.live.template data<T>();
    const PackedShardView<T> view(
        colors, buffers.snapshot.template data<T>(), shard.lo, shard.hi);
    const std::span<std::int64_t> delta = deltas.shard(s);
    // Fresh first-gap draw each epoch: exact by memorylessness of the
    // shard's Poisson(n_s) tick process.
    double next_tick = epoch_t0 + exponential_unit(shard.rng) * inv_rate;
    for (;;) {
      const bool deliver = !shard.deliveries.empty() &&
                           shard.deliveries.next_time() <= next_tick;
      const double event_time =
          deliver ? shard.deliveries.next_time() : next_tick;
      if (event_time >= t_end) break;  // remainder handled next epoch
      if (deliver) {
        auto event = shard.deliveries.pop();
        ++drained;
        const NodeId u = event.payload.to;
        if (blocking) shard.pending[u - shard.lo] = 0;
        // Answers to crashed nodes are dropped (flag still cleared
        // above so the blocking bookkeeping cannot wedge).
        if (perturb != nullptr && !perturb->allows_tick(u)) continue;
        const ColorId next = proto.apply_query(u, event.payload.query, view);
        const ColorId old = colors[u];
        if (next != old) {
          colors[u] = static_cast<T>(next);
          --delta[old];
          ++delta[next];
          shard.changed.push_back(u);
        }
      } else {
        const auto u =
            static_cast<NodeId>(shard.lo + uniform_below(shard.rng, n_s));
        const bool alive = perturb == nullptr || perturb->allows_tick(u);
        if (alive && (!blocking || !shard.pending[u - shard.lo])) {
          auto query = proto.query(u, view, shard.rng);
          const double delay = latency.sample(shard.rng);
          shard.deliveries.push(next_tick + delay,
                                Delivery{u, std::move(query)});
          if (blocking) shard.pending[u - shard.lo] = 1;
        }
        ++shard.ticks;
        next_tick += exponential_unit(shard.rng) * inv_rate;
      }
    }
    if (traced) {
      trace::Sink& sink = trace::local_sink();
      const std::int64_t span_end = trace::now_ns();
      sink.shard_span(span_t0, span_end - span_t0,
                      shard.ticks - ticks_before);
      if (drained > 0) sink.queue_drain(span_end, 0, drained);
      // Depth at the epoch boundary is a trajectory property (the
      // queue content is keyed on seed/shards/epoch_length), so the
      // derived quantiles are deterministic and bench-gateable.
      sink.queue_depth(span_end, shard.deliveries.size());
    }
  };

  return run_epochs(
      proto, max_time, std::forward<Obs>(obs), sample_every, epoch_length,
      perturb,
      [&](NodeId u, ColorId c) {
        proto.mutable_table().set_color(u, c);
        buffers.live.set(u, c);
        buffers.snapshot.set(u, c);
      },
      [&](double t0, double dt) {
        epoch_t0 = t0;
        epoch_dt = dt;
        executor.parallel_for(shards, epoch_job);
        return merge_epoch<T>(proto.mutable_table(), buffers, deltas, pool);
      });
}

}  // namespace detail

/// Runs `proto` under Poisson(1) clocks *and* a response-latency model,
/// spread across `num_shards` shards: every (non-suppressed) tick
/// issues a query whose sampled colors are read at query time; the
/// answer travels for latency.sample() time units on the shard's own
/// delivery queue (the querier receives its own answer, so deliveries
/// never cross shards) and the update rule is applied at delivery.
/// Under QueryDiscipline::kBlocking a node with an answer in flight
/// skips its ticks until the answer lands — the Bankhamer et al.
/// request/response regime; kFireAndForget queries on every tick.
///
/// This is the general latency path of the sharded engine: it handles
/// every sampleable model (const, exp, pareto, aging) exactly — delays
/// cross epoch (and sample) boundaries on the persistent per-shard
/// queues — leaving only the usual sharded-engine deviation, the
/// epoch-start snapshot for *foreign* neighbor reads. Within an epoch
/// each shard interleaves its superposition tick stream (sequential
/// Exp(1)/n_s gaps, exact by memorylessness across epoch boundaries)
/// with its queue head in nondecreasing event time, so a fixed
/// (seed, num_shards, epoch_length) tuple is deterministic regardless
/// of thread scheduling. done() is polled at epoch boundaries; when
/// the horizon cuts the run, queries still in flight are dropped and
/// result.time reports `max_time`.
///
/// Of the tuning knobs only `numa` applies here: the sequential
/// tick/queue interleave cannot consume block-refilled draws
/// (--sampling=batch is silently scalar on this path), and
/// `exact_reads` names a zero-latency schedule, so requesting it with
/// a latency model is a contract violation.
///
/// Perturbations drain at epoch boundaries exactly as in run_sharded.
/// A crashed node additionally stops issuing queries, and answers
/// delivered to it are dropped (its in-flight flag still clears, so a
/// node crashed mid-flight does not wedge the blocking discipline's
/// bookkeeping).
template <DelayedShardableProtocol P, typename Obs = NullObserver>
AsyncRunResult run_sharded_queued(P& proto, const LatencyModel& latency,
                                  QueryDiscipline discipline,
                                  std::uint64_t seed, unsigned num_shards,
                                  double max_time, Obs&& obs = Obs{},
                                  double sample_every = 1.0,
                                  double epoch_length = 0.25,
                                  Perturber* perturb = nullptr,
                                  const EngineTuning& tuning = {}) {
  PC_EXPECTS(max_time > 0.0);
  PC_EXPECTS(sample_every > 0.0);
  PC_EXPECTS(epoch_length > 0.0);
  if (tuning.exact_reads) {
    throw ContractViolation(
        "--exact-reads names the zero-latency sharded schedule; it "
        "cannot be combined with a latency model's delivery queues");
  }
  const std::uint64_t n = proto.num_nodes();
  PC_EXPECTS(n >= 1);
  const std::uint64_t shards = detail::resolve_shards(num_shards, n);
  switch (proto.table().width()) {
    case ColorWidth::kU8:
      return detail::run_sharded_queued_impl<std::uint8_t>(
          proto, latency, discipline, seed, shards, max_time,
          std::forward<Obs>(obs), sample_every, epoch_length, perturb,
          tuning);
    case ColorWidth::kU16:
      return detail::run_sharded_queued_impl<std::uint16_t>(
          proto, latency, discipline, seed, shards, max_time,
          std::forward<Obs>(obs), sample_every, epoch_length, perturb,
          tuning);
    case ColorWidth::kU32:
      return detail::run_sharded_queued_impl<std::uint32_t>(
          proto, latency, discipline, seed, shards, max_time,
          std::forward<Obs>(obs), sample_every, epoch_length, perturb,
          tuning);
  }
  throw ContractViolation("unreachable color width");
}

}  // namespace plurality
