// perfbench_driver: times the asynchronous plurality-consensus
// simulator end to end and layer by layer, from outside the library.
//
//   perfbench_driver --workload=W --seed=S --mode=setup [--cpu=C]
//   perfbench_driver --workload=W --seed=S --mode=timed --seconds=R [--cpu=C]
//   perfbench_driver --workload=W --seed=S --mode=traced --trace-file=F
//
// Prints one JSON object on stdout. `setup` measures one cold set-up
// (run.py starts several such processes at once and takes the median).
// `timed` runs with tracing off: cold set-up, an untimed warm-up, then
// engine runs for R seconds, giving the end-to-end metrics. Both start
// on core C (an index into the cores the process may use). A
// single-threaded workload (--jobs=1, one engine run per unit) runs the
// window on one replica thread per core, each pinned to its own core;
// another single-run workload starts each unit on the next core in
// turn. `traced` runs a fixed number of units twice, untraced and then
// traced with the benchmark's own spans plus the trace layer's events,
// and adds layer microbenchmarks: the per-layer metrics. A determinism
// mismatch exits with status 3, naming the workload and seed.
//
// The workloads, and why each exists, are described in NOTES.md.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/three_majority.hpp"
#include "core/two_choices.hpp"
#include "experiment/args.hpp"
#include "experiment/json_writer.hpp"
#include "experiment/runner.hpp"
#include "fingerprint.hpp"
#include "graph/csr.hpp"
#include "graph/factory.hpp"
#include "jobs/executor.hpp"
#include "metrics.hpp"
#include "opinion/assignment.hpp"
#include "rng/batch.hpp"
#include "rng/seed.hpp"
#include "sim/continuous_engine.hpp"
#include "sim/latency.hpp"
#include "sim/sharded_engine.hpp"
#include "spans.hpp"
#include "trace/trace.hpp"

namespace {

using namespace plurality;
using perfbench::percentile;
using perfbench::ScopedSpan;
using perfbench::SpanLog;
using Clock = std::chrono::steady_clock;

/// Simulated-time cap of one run; every workload reaches consensus far
/// earlier (T is about 15 to 50), so hitting it is a failed run.
constexpr double kMaxTime = 300.0;

/// Simulated-time cap of the untimed warm-up run: long enough to touch
/// every buffer and wake every thread, short of consensus.
constexpr double kWarmUpTime = 4.0;

volatile std::uint64_t g_sink = 0;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

enum class Engine { kSuperposition, kSharded, kShardedQueued };

/// One workload. Its reason for existing is in NOTES.md.
struct Spec {
  const char* name;
  std::uint64_t n;
  ColorId k;
  double bias_factor;  ///< c1 - c2 = bias_factor * sqrt(n ln n)
  GraphKind graph;
  Engine engine;
  unsigned shards;
  unsigned jobs;                ///< process concurrency, as --jobs=N
  std::uint64_t sweep_runs;     ///< leaves per sweep; 0 = one engine run
  std::uint64_t traced_units;   ///< units in each pass of --mode=traced
  bool three_majority;
};

constexpr Spec kSpecs[] = {
    {"clique_2c", 1ull << 20, 8, 2.0, GraphKind::kComplete,
     Engine::kSuperposition, 1, 1, 0, 3, false},
    {"clique_3maj_sharded", 1ull << 22, 2, 2.0, GraphKind::kComplete,
     Engine::kSharded, 4, 4, 0, 2, true},
    {"regular_2c_latency", 1ull << 16, 4, 4.0, GraphKind::kRandomRegular,
     Engine::kShardedQueued, 4, 4, 0, 4, false},
    {"sweep_small", 4096, 4, 2.0, GraphKind::kComplete,
     Engine::kSuperposition, 1, 4, 4000, 2, false},
};

/// Seconds on the steady clock.
double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// The outcome of one engine run, and what it cost.
struct RunOutcome {
  AsyncRunResult result;
  bool threw = false;
  double engine_s = 0.0;

  /// A run fails when it throws, reaches no consensus by the cap, or
  /// converges on a colour other than the initial plurality colour 0.
  bool failed() const {
    return threw || !result.consensus || result.winner != 0;
  }

  bool same_trajectory(const RunOutcome& o) const {
    return threw == o.threw && result.ticks == o.result.ticks &&
           result.time == o.result.time && result.winner == o.result.winner &&
           result.consensus == o.result.consensus;
  }
};

/// One timed unit: a single engine run, or a whole sweep.
struct Unit {
  std::vector<RunOutcome> runs;
  double wall_s = 0.0;
};

[[noreturn]] void mismatch(const Spec& spec, std::uint64_t seed,
                           const std::string& what) {
  std::fprintf(stderr,
               "perfbench: determinism mismatch on workload %s seed %llu: "
               "%s\n",
               spec.name, static_cast<unsigned long long>(seed),
               what.c_str());
  std::exit(3);
}

void check_same(const Spec& spec, std::uint64_t seed, const Unit& a,
                const Unit& b, const std::string& what) {
  if (a.runs.size() != b.runs.size()) mismatch(spec, seed, what);
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    if (!a.runs[i].same_trajectory(b.runs[i])) {
      mismatch(spec, seed,
               what + " (run " + std::to_string(i) + ": ticks " +
                   std::to_string(a.runs[i].result.ticks) + " vs " +
                   std::to_string(b.runs[i].result.ticks) + ")");
    }
  }
}

/// True when two views hold the same nodes and neighbour rows.
bool same_topology(const CsrTopology& a, const CsrTopology& b) {
  if (a.num_nodes() != b.num_nodes() ||
      a.is_implicit_complete() != b.is_implicit_complete()) {
    return false;
  }
  if (a.is_implicit_complete()) return true;
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    if (!std::ranges::equal(a.neighbors(u), b.neighbors(u))) return false;
  }
  return true;
}

/// Everything one workload needs: its topology (built once per process
/// and reused by every run), seeds, and the calls into each layer.
template <typename Proto>
class Bench {
 public:
  Bench(const Spec& spec, std::uint64_t seed)
      : spec_(spec),
        seeds_(seed),
        bias_(static_cast<std::uint64_t>(
            spec.bias_factor *
            std::sqrt(static_cast<double>(spec.n) *
                      std::log(static_cast<double>(spec.n))))),
        latency_(make_latency_model(LatencyKind::kExponential, 0.5, 1.0)) {}

  /// Graph build, CSR view, the first run's placement and protocol
  /// construction: everything up to the first tick.
  void setup(SpanLog* log, SpanLog::Id parent) {
    Xoshiro256 graph_rng = seeds_.make_rng(0);
    GraphSpec graph_spec;
    graph_spec.kind = spec_.graph;
    {
      ScopedSpan span(log, "graph.build", parent);
      graph_ = std::make_unique<AnyGraph>(
          make_graph(graph_spec, spec_.n, graph_rng));
    }
    {
      ScopedSpan span(log, "graph.csr", parent);
      csr_.emplace(make_csr_view(*graph_));
    }
    Xoshiro256 rng = is_sweep() ? sweep_seeds(0).make_rng(0)
                                : place_seeds().make_rng(0);
    first_.emplace(place_and_construct(rng, log, parent));
  }

  /// The untimed warm-up: unit 0 cut at kWarmUpTime, on the protocol
  /// setup() constructed. It faults in pages, fills caches and wakes
  /// threads, which made the first pass of a fresh process read up to
  /// 50% slower.
  void warm_up() {
    if (is_sweep()) {
      first_.reset();
      run_unit(0, nullptr, SpanLog::kNone, kWarmUpTime);
    } else {
      run_engine(*first_, 0, nullptr, SpanLog::kNone, kWarmUpTime);
      first_.reset();
    }
  }

  /// Unit r of the workload. Reads only state fixed by setup(), so
  /// several threads may run units at once.
  Unit run_unit(std::uint64_t r, SpanLog* log, SpanLog::Id parent,
                double max_time = kMaxTime) const {
    const auto start = Clock::now();
    Unit unit;
    if (is_sweep()) {
      unit.runs = run_sweep(r, log, parent, max_time);
    } else {
      RunOutcome out;
      try {
        Xoshiro256 rng = place_seeds().make_rng(r);
        Proto proto = place_and_construct(rng, log, parent);
        out = run_engine(proto, r, log, parent, max_time);
      } catch (const std::exception&) {
        out.threw = true;
      }
      unit.runs.push_back(out);
    }
    unit.wall_s = seconds_since(start);
    return unit;
  }

  bool is_sweep() const { return spec_.sweep_runs > 0; }
  const CsrTopology& csr() const { return *csr_; }
  const AnyGraph& graph() const { return *graph_; }

  /// Nanoseconds per CsrTopology::sample_neighbor on random nodes.
  double graph_sample_ns() const {
    Xoshiro256 rng = seeds_.make_rng(7);
    const std::vector<NodeId> nodes = random_nodes(rng, 1u << 20);
    std::vector<double> reps;
    for (int rep = 0; rep < 5; ++rep) {
      std::uint64_t sum = 0;
      const auto start = Clock::now();
      for (int pass = 0; pass < 4; ++pass) {
        for (const NodeId u : nodes) sum += csr_->sample_neighbor(u, rng);
      }
      reps.push_back(seconds_since(start) * 1e9 /
                     (4.0 * static_cast<double>(nodes.size())));
      g_sink = sum;
    }
    return percentile(reps, 0.5).value;
  }

  /// Nanoseconds per direct on_tick of the workload's protocol on
  /// pre-drawn uniform nodes, over two time units of a fresh start
  /// (far from consensus on every workload).
  double core_tick_ns() const {
    const std::uint64_t ticks = std::min<std::uint64_t>(1u << 22, 2 * spec_.n);
    const std::uint64_t reps = std::max<std::uint64_t>(5, (1u << 22) / ticks);
    Xoshiro256 rng = seeds_.make_rng(8);
    const std::vector<NodeId> nodes = random_nodes(rng, ticks);
    std::vector<double> per_rep;
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
      Xoshiro256 place_rng = seeds_.child(9).make_rng(rep);
      Proto proto = place_and_construct(place_rng, nullptr, SpanLog::kNone);
      const auto start = Clock::now();
      for (const NodeId u : nodes) proto.on_tick(u, rng);
      per_rep.push_back(seconds_since(start) * 1e9 /
                        static_cast<double>(ticks));
      g_sink = proto.table().support(0);
    }
    return percentile(per_rep, 0.5).value;
  }

  /// OpinionTable::state_bytes_per_node of a freshly placed table.
  double opinion_bytes_per_node() const {
    Xoshiro256 rng = place_seeds().make_rng(0);
    const Proto proto = place_and_construct(rng, nullptr, SpanLog::kNone);
    return proto.table().state_bytes_per_node();
  }

 private:
  SeedSequence place_seeds() const { return seeds_.child(1); }
  SeedSequence engine_seeds() const { return seeds_.child(2); }
  SeedSequence sweep_seeds(std::uint64_t r) const {
    return seeds_.child(3).child(r);
  }

  std::vector<NodeId> random_nodes(Xoshiro256& rng,
                                   std::uint64_t count) const {
    std::vector<NodeId> nodes(count);
    for (auto& u : nodes) u = static_cast<NodeId>(uniform_below(rng, spec_.n));
    return nodes;
  }

  Proto place_and_construct(Xoshiro256& rng, SpanLog* log,
                            SpanLog::Id parent) const {
    std::optional<Assignment> assignment;
    {
      ScopedSpan span(log, "opinion.place", parent);
      assignment.emplace(assign_plurality_bias(spec_.n, spec_.k, bias_, rng));
    }
    ScopedSpan span(log, "core.construct", parent);
    return Proto(*csr_, std::move(*assignment));
  }

  RunOutcome run_engine(Proto& proto, std::uint64_t r, SpanLog* log,
                        SpanLog::Id parent, double max_time) const {
    RunOutcome out;
    const auto start = Clock::now();
    {
      ScopedSpan span(log, "sim.run", parent);
      switch (spec_.engine) {
        case Engine::kSuperposition: {
          Xoshiro256 rng = engine_seeds().make_rng(r);
          out.result = run_continuous(proto, rng, max_time);
          break;
        }
        case Engine::kSharded:
          out.result = run_sharded(proto, engine_seeds().stream(r),
                                   spec_.shards, max_time);
          break;
        case Engine::kShardedQueued:
          out.result = run_sharded_queued(proto, *latency_,
                                          QueryDiscipline::kBlocking,
                                          engine_seeds().stream(r),
                                          spec_.shards, max_time);
          break;
      }
    }
    out.engine_s = seconds_since(start);
    return out;
  }

  /// One SweepRunner sweep of spec_.sweep_runs leaves on the process
  /// executor; each leaf places, constructs and runs on the
  /// superposition engine from its own stream.
  std::vector<RunOutcome> run_sweep(std::uint64_t r, SpanLog* log,
                                    SpanLog::Id parent,
                                    double max_time) const {
    ScopedSpan sweep_span(log, "experiment.sweep", parent);
    const SpanLog::Id sweep_id = sweep_span.id();
    std::vector<RunOutcome> outcomes;
    SweepRunner sweep;
    sweep.add_point(
        spec_.sweep_runs, 6, sweep_seeds(r),
        [this, log, sweep_id, max_time](std::uint64_t, Xoshiro256& rng) {
          ScopedSpan leaf(log, "jobs.leaf", sweep_id);
          RunOutcome out;
          try {
            Proto proto = place_and_construct(rng, log, leaf.id());
            const auto start = Clock::now();
            {
              ScopedSpan span(log, "sim.run", leaf.id());
              out.result = run_continuous(proto, rng, max_time);
            }
            out.engine_s = seconds_since(start);
          } catch (const std::exception&) {
            out.threw = true;
          }
          const AsyncRunResult& res = out.result;
          return std::vector<double>{static_cast<double>(res.ticks), res.time,
                                     static_cast<double>(res.winner),
                                     res.consensus ? 1.0 : 0.0,
                                     out.threw ? 1.0 : 0.0, out.engine_s};
        },
        [&outcomes](const std::vector<std::vector<double>>& by_slot) {
          outcomes.resize(by_slot[0].size());
          for (std::size_t i = 0; i < outcomes.size(); ++i) {
            RunOutcome& out = outcomes[i];
            out.result.ticks = static_cast<std::uint64_t>(by_slot[0][i]);
            out.result.time = by_slot[1][i];
            out.result.winner = static_cast<ColorId>(by_slot[2][i]);
            out.result.consensus = by_slot[3][i] != 0.0;
            out.threw = by_slot[4][i] != 0.0;
            out.engine_s = by_slot[5][i];
          }
        });
    sweep.run();
    return outcomes;
  }

  const Spec& spec_;
  SeedSequence seeds_;
  std::uint64_t bias_;
  std::unique_ptr<LatencyModel> latency_;
  std::unique_ptr<AnyGraph> graph_;
  std::optional<CsrTopology> csr_;
  std::optional<Proto> first_;
};

// ---- output ------------------------------------------------------------

class Report {
 public:
  void add(const std::string& name, double value, const char* unit,
           std::size_t samples) {
    JsonValue m = JsonValue::object();
    m["value"] = value;
    m["unit"] = unit;
    m["samples"] = static_cast<std::uint64_t>(samples);
    metrics_[name] = std::move(m);
  }

  /// The q-quantile of `xs` with its sample count; a layer the workload
  /// never calls reports 0 from 0 samples.
  void add_quantile(const std::string& name, const std::vector<double>& xs,
                    double q, const char* unit) {
    if (xs.empty()) {
      add(name, 0.0, unit, 0);
    } else {
      const perfbench::Percentile p = percentile(xs, q);
      add(name, p.value, unit, p.samples);
    }
  }

  void print(const Spec& spec, std::uint64_t seed, const char* mode,
             std::uint64_t attempted, std::uint64_t failed) {
    JsonValue doc = JsonValue::object();
    doc["workload"] = spec.name;
    doc["seed"] = seed;
    doc["mode"] = mode;
    doc["fingerprint"] = perfbench::host_build_fingerprint();
    doc["attempted"] = attempted;
    doc["failed"] = failed;
    doc["metrics"] = std::move(metrics_);
    std::printf("%s\n", doc.dump(-1).c_str());
  }

 private:
  JsonValue metrics_ = JsonValue::object();
};

double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Counts failed runs into `failed` and names each on stderr.
void count_failed(const Spec& spec, std::uint64_t seed,
                  const std::vector<Unit>& units, std::uint64_t* attempted,
                  std::uint64_t* failed) {
  for (std::size_t u = 0; u < units.size(); ++u) {
    for (std::size_t i = 0; i < units[u].runs.size(); ++i) {
      const RunOutcome& run = units[u].runs[i];
      ++*attempted;
      if (!run.failed()) continue;
      ++*failed;
      std::fprintf(stderr,
                   "perfbench: workload %s seed %llu unit %zu run %zu "
                   "failed: %s\n",
                   spec.name, static_cast<unsigned long long>(seed), u, i,
                   run.threw        ? "threw"
                   : !run.result.consensus ? "no consensus by the time cap"
                                    : "consensus on a colour other than 0");
    }
  }
}

void configure_trace(trace::Mode mode, const std::string& path = "") {
  trace::TraceSpec spec;
  spec.mode = mode;
  spec.path = path;
  trace::Registry::instance().configure(spec);
}

/// Process concurrency exactly as `plurality_exp --jobs=N` sets it,
/// never above the host's core count.
void set_jobs(const Spec& spec) {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  jobs::set_process_concurrency(std::min(spec.jobs, cores));
}

/// rng: nanoseconds per draw on the generator types the engines use.
void add_rng_metrics(Report& report, std::uint64_t seed, std::uint64_t n) {
  constexpr std::uint64_t kDraws = 1u << 24;
  Xoshiro256 rng(seed);
  std::vector<double> uniform, exponential, batch;
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t sum = 0;
    auto start = Clock::now();
    for (std::uint64_t i = 0; i < kDraws; ++i) sum += uniform_below(rng, n);
    uniform.push_back(seconds_since(start) * 1e9 / kDraws);
    double acc = 0.0;
    start = Clock::now();
    for (std::uint64_t i = 0; i < kDraws; ++i) acc += exponential_unit(rng);
    exponential.push_back(seconds_since(start) * 1e9 / kDraws);
    Xoshiro256Block block(seed + static_cast<std::uint64_t>(rep));
    std::vector<NodeId> buf(4096);
    start = Clock::now();
    for (std::uint64_t i = 0; i < kDraws; i += buf.size()) {
      block.fill_uniform_below(n, buf);
      sum += buf[i % buf.size()];
    }
    batch.push_back(seconds_since(start) * 1e9 / kDraws);
    g_sink = sum + static_cast<std::uint64_t>(acc);
  }
  report.add_quantile("rng.uniform_ns", uniform, 0.5, "ns");
  report.add_quantile("rng.exp_ns", exponential, 0.5, "ns");
  report.add_quantile("rng.batch_uniform_ns", batch, 0.5, "ns");
}

/// jobs and experiment: every sweep's leaf spans against its wall time
/// on `threads` threads. Zeros from 0 samples where nothing swept.
void add_sweep_metrics(Report& report, const SpanLog& log,
                       const trace::TraceSummary& summary, double threads) {
  const std::vector<double> leaf_s = log.durations("jobs.leaf");
  double leaf_total = 0.0;
  for (const double s : leaf_s) leaf_total += s;
  double sweep_total = 0.0;
  for (const double s : log.durations("experiment.sweep")) sweep_total += s;
  std::vector<double> tails;
  const std::vector<SpanLog::Span> spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != "experiment.sweep") continue;
    std::int64_t last_leaf_end = spans[i].interval.begin_ns;
    for (const SpanLog::Span& s : spans) {
      if (s.parent == i) {
        last_leaf_end = std::max(last_leaf_end, s.interval.end_ns);
      }
    }
    tails.push_back(
        static_cast<double>(spans[i].interval.end_ns - last_leaf_end) * 1e-9);
  }
  const bool swept = !leaf_s.empty() && sweep_total > 0.0;
  const double capacity = sweep_total * threads;
  report.add("jobs.busy_frac", swept ? leaf_total / capacity : 0.0, "frac",
             leaf_s.size());
  report.add("jobs.dispatch_us",
             swept ? (capacity - leaf_total) /
                         static_cast<double>(leaf_s.size()) * 1e6
                   : 0.0,
             "us", leaf_s.size());
  report.add_quantile("jobs.leaf_s_p50", leaf_s, 0.50, "s");
  report.add_quantile("jobs.leaf_s_p99", leaf_s, 0.99, "s");
  report.add("jobs.steals", static_cast<double>(summary.steal_count), "count",
             1);
  report.add("jobs.parks", static_cast<double>(summary.park_count), "count",
             1);
  report.add_quantile("experiment.sweep_tail_s", tails, 0.5, "s");
}

// ---- modes -------------------------------------------------------------

/// The cores this process may run on, and ways to place the calling
/// thread on one of them. Co-tenant load on a shared host slows one core
/// at a time, for seconds on end, and only ever adds time (NOTES.md,
/// "Steadiness"), so the timed pass spreads its work over every core.
class Cores {
 public:
  Cores() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (unsigned cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) ids_.push_back(cpu);
    }
  }

  std::size_t size() const noexcept { return ids_.size(); }

  /// Pins the calling thread to core i (mod size()). Best effort: where
  /// the host refuses, the thread runs where the scheduler puts it.
  void pin(std::size_t i) const {
    if (ids_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(ids_[i % ids_.size()], &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
  }

  /// Moves the calling thread onto core i, then lets it run anywhere
  /// again. The scheduler leaves a lone busy thread where it is, so the
  /// work that follows starts on that core, while threads it creates (a
  /// shard pool's workers) inherit no pinning.
  void start_on(std::size_t i) const {
    if (ids_.empty()) return;
    pin(i);
    pthread_setaffinity_np(pthread_self(), sizeof(allowed_), &allowed_);
  }

 private:
  cpu_set_t allowed_;
  std::vector<unsigned> ids_;
};

template <typename Proto>
int mode_setup(const Spec& spec, std::uint64_t seed, std::size_t cpu) {
  configure_trace(trace::Mode::kOff);
  Cores().start_on(cpu);
  const auto start = Clock::now();
  set_jobs(spec);
  Bench<Proto> bench(spec, seed);
  bench.setup(nullptr, SpanLog::kNone);
  const double setup_s = seconds_since(start);
  Report report;
  report.add("setup_s", setup_s, "s", 1);
  report.print(spec, seed, "setup", 1, 0);
  return 0;
}

/// Replica threads of a timed window: one per core (at most 4) for a
/// workload that runs one engine call per unit at --jobs=1, each pinned
/// to its core, so the fastest call comes from whichever core is quiet.
/// Any other workload uses the thread budget of its --jobs and runs one
/// replica, which would contend with copies of itself.
unsigned timed_replicas(const Spec& spec, const Cores& cores) {
  if (spec.jobs != 1 || spec.sweep_runs > 0) return 1;
  return static_cast<unsigned>(
      std::clamp<std::size_t>(cores.size(), 1, 4));
}

template <typename Proto>
int mode_timed(const Spec& spec, std::uint64_t seed, double seconds,
               std::size_t cpu) {
  configure_trace(trace::Mode::kOff);
  const Cores cores;
  cores.start_on(cpu);
  const auto setup_start = Clock::now();
  set_jobs(spec);
  Bench<Proto> bench(spec, seed);
  bench.setup(nullptr, SpanLog::kNone);
  const double setup_s = seconds_since(setup_start);

  bench.warm_up();

  // Peak memory is read after the first timed unit, before any replica
  // starts: the heap keeps growing for the first few runs of a process,
  // so a later reading would depend on how many units fit the window.
  const unsigned replicas = timed_replicas(spec, cores);
  const double start_s = now_s();
  std::vector<std::vector<Unit>> units(replicas);
  units[0].push_back(bench.run_unit(0, nullptr, SpanLog::kNone));
  const double rss_mb = peak_rss_mb();

  // Replica j runs units 1 + j, 1 + j + replicas, ... until the window
  // closes; the unit under way then runs to its end. A lone replica of
  // a single-run workload starts each unit on the next core in turn.
  const bool rotate = replicas == 1 && !bench.is_sweep();
  const auto replica = [&](unsigned j) {
    if (replicas > 1) cores.pin(j);
    if (j > 0) bench.run_unit(j, nullptr, SpanLog::kNone, kWarmUpTime);
    for (std::uint64_t r = 1 + j; now_s() - start_s < seconds; r += replicas) {
      if (rotate) cores.start_on(cpu + r);
      units[j].push_back(bench.run_unit(r, nullptr, SpanLog::kNone));
    }
  };
  std::vector<std::thread> threads;
  for (unsigned j = 1; j < replicas; ++j) threads.emplace_back(replica, j);
  replica(0);
  for (std::thread& t : threads) t.join();
  const double wall_s = now_s() - start_s;

  // The gated timings are the fastest real call or unit of the window:
  // per engine call, its seconds and ticks per second; per unit, runs
  // per second of its whole wall time (placement, construction and
  // dispatch included) and, for a sweep, ticks per second.
  std::vector<double> run_s;
  std::vector<double> call_ticks_per_s;
  std::vector<double> unit_runs_per_s;
  std::vector<double> unit_ticks_per_s;
  double ticks = 0.0;
  std::vector<Unit> all;
  for (std::vector<Unit>& per_replica : units) {
    for (Unit& unit : per_replica) {
      double unit_ticks = 0.0;
      for (const RunOutcome& run : unit.runs) {
        ticks += static_cast<double>(run.result.ticks);
        unit_ticks += static_cast<double>(run.result.ticks);
        if (run.failed() || run.engine_s <= 0.0) continue;
        run_s.push_back(run.engine_s);
        call_ticks_per_s.push_back(static_cast<double>(run.result.ticks) /
                                   run.engine_s);
      }
      unit_runs_per_s.push_back(static_cast<double>(unit.runs.size()) /
                                unit.wall_s);
      unit_ticks_per_s.push_back(unit_ticks / unit.wall_s);
      all.push_back(std::move(unit));
    }
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  count_failed(spec, seed, all, &attempted, &failed);

  Report report;
  report.add("setup_s", setup_s, "s", 1);
  report.add_quantile("run_s_min", run_s, 0.0, "s");
  report.add_quantile("ticks_per_s_max",
                      bench.is_sweep() ? unit_ticks_per_s : call_ticks_per_s,
                      1.0, "1/s");
  report.add_quantile("runs_per_s_max", unit_runs_per_s, 1.0, "1/s");
  report.add("peak_rss_mb", rss_mb, "MB", 1);
  // Over the whole window, per replica, as a user on this host saw it.
  const double replica_s = wall_s * static_cast<double>(replicas);
  report.add("replicas", static_cast<double>(replicas), "count", 1);
  report.add_quantile("run_s_p50", run_s, 0.5, "s");
  report.add("ticks_per_s", ticks / replica_s, "1/s", all.size());
  report.add("runs_per_s", static_cast<double>(attempted) / replica_s, "1/s",
             attempted);
  report.add("failed_frac", perfbench::failed_frac(failed, attempted), "frac",
             attempted);
  report.print(spec, seed, "timed", attempted, failed);
  return 0;
}

template <typename Proto>
int mode_traced(const Spec& spec, std::uint64_t seed,
                const std::string& trace_file) {
  set_jobs(spec);

  // Untraced reference pass: the same units the traced pass runs.
  configure_trace(trace::Mode::kOff);
  Bench<Proto> plain(spec, seed);
  plain.setup(nullptr, SpanLog::kNone);
  plain.warm_up();
  // The overhead compares the fastest unit of each pass, for the same
  // reason the timed pass gates best figures.
  std::vector<Unit> untraced;
  double untraced_s = 0.0;
  for (std::uint64_t r = 0; r < spec.traced_units; ++r) {
    untraced.push_back(plain.run_unit(r, nullptr, SpanLog::kNone));
    const double wall = untraced.back().wall_s;
    untraced_s = r == 0 ? wall : std::min(untraced_s, wall);
  }

  // Traced pass: the benchmark's spans plus the trace layer's events.
  configure_trace(trace::Mode::kTimeline, trace_file);
  SpanLog log;
  std::vector<Unit> traced;
  double traced_s = 0.0;
  Bench<Proto> bench(spec, seed);
  {
    ScopedSpan root(&log, spec.name);
    {
      ScopedSpan setup(&log, "setup", root.id());
      bench.setup(&log, setup.id());
    }
    for (std::uint64_t r = 0; r < spec.traced_units; ++r) {
      traced.push_back(bench.run_unit(r, &log, root.id()));
      const double wall = traced.back().wall_s;
      traced_s = r == 0 ? wall : std::min(traced_s, wall);
    }
  }
  const trace::TraceSummary summary = trace::Registry::instance().summarize();
  // Queue depths come from the exact per-epoch timeline events: the
  // summary's histogram clamps depths at trace::kDepthBuckets - 1, which
  // every shard queue of regular_2c_latency exceeds.
  std::set<std::uint32_t> shard_tids;
  std::vector<double> depths;
  trace::Registry::instance().for_each_sink([&](const trace::Sink& sink) {
    for (std::size_t i = 0; i < sink.timeline_size(); ++i) {
      const trace::Event& e = sink.timeline_at(i);
      if (e.kind == trace::EventKind::kShardTicks) {
        shard_tids.insert(sink.tid());
      }
      if (e.kind == trace::EventKind::kQueueDepth) {
        depths.push_back(static_cast<double>(e.value));
      }
    }
  });
  log.write_chrome_trace(trace_file);
  configure_trace(trace::Mode::kOff);

  for (std::uint64_t r = 0; r < spec.traced_units; ++r) {
    check_same(spec, seed, untraced[r], traced[r],
               "untraced vs traced unit " + std::to_string(r));
  }
  if (!same_topology(plain.csr(), bench.csr())) {
    mismatch(spec, seed, "graph rebuilt from the same seed differs");
  }

  std::vector<double> times;
  std::vector<double> ticks;
  double engine_s = 0.0;
  double total_ticks = 0.0;
  for (const Unit& unit : traced) {
    for (const RunOutcome& run : unit.runs) {
      times.push_back(run.result.time);
      ticks.push_back(static_cast<double>(run.result.ticks));
      total_ticks += static_cast<double>(run.result.ticks);
    }
  }
  for (const double s : log.durations("sim.run")) engine_s += s;

  Report report;
  add_rng_metrics(report, seed, spec.n);

  // graph
  report.add_quantile("graph.build_s", log.self_seconds("graph.build"), 0.5,
                      "s");
  report.add_quantile("graph.csr_s", log.self_seconds("graph.csr"), 0.5,
                      "s");
  report.add("graph.sample_ns", bench.graph_sample_ns(), "ns", 5);
  report.add("graph.bytes_per_node",
             static_cast<double>(bench.csr().storage_bytes()) /
                 static_cast<double>(spec.n),
             "B", 1);
  const auto* regular = std::get_if<RandomRegularGraph>(&bench.graph());
  report.add("graph.defects",
             regular ? static_cast<double>(regular->defects()) : 0.0, "count",
             1);

  // opinion
  report.add_quantile("opinion.place_s", log.self_seconds("opinion.place"), 0.5,
                      "s");
  report.add("opinion.bytes_per_node", bench.opinion_bytes_per_node(), "B", 1);

  // core
  const double core_tick_ns = bench.core_tick_ns();
  report.add("core.tick_ns", core_tick_ns, "ns", 5);
  report.add_quantile("core.consensus_time", times, 0.5,
                      "sim_time");
  report.add_quantile("core.ticks_per_run", ticks, 0.5,
                      "count");

  // sim
  const double sim_tick_ns = engine_s * 1e9 / total_ticks;
  report.add("sim.tick_ns", sim_tick_ns, "ns", times.size());
  report.add("sim.overhead_ns", sim_tick_ns - core_tick_ns, "ns",
             times.size());
  report.add("sim.shard_parallelism",
             static_cast<double>(summary.work_ns) / (engine_s * 1e9), "ratio",
             times.size());
  report.add("sim.shard_threads", static_cast<double>(shard_tids.size()),
             "count", 1);
  report.add("sim.barrier_wait_frac", summary.barrier_wait_frac(), "frac",
             summary.barrier_wait_count);
  report.add_quantile("sim.queue_depth_p50", depths, 0.50, "count");
  report.add_quantile("sim.queue_depth_p99", depths, 0.99, "count");
  report.add("sim.queue_drained", static_cast<double>(summary.queue_drained),
             "count", 1);

  add_sweep_metrics(report, log, summary,
                    static_cast<double>(jobs::ThreadBudget::global().limit()));

  report.add("trace.overhead_frac",
             perfbench::overhead_frac(traced_s, untraced_s), "frac",
             spec.traced_units);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  count_failed(spec, seed, untraced, &attempted, &failed);
  count_failed(spec, seed, traced, &attempted, &failed);
  report.print(spec, seed, "traced", attempted, failed);
  return 0;
}

template <typename Proto>
int dispatch(const Spec& spec, const Args& args) {
  const std::uint64_t seed = args.get_u64("seed", 1);
  const std::string mode = args.get_string("mode", "timed");
  const std::size_t cpu = args.get_u64("cpu", 0);
  if (mode == "setup") return mode_setup<Proto>(spec, seed, cpu);
  if (mode == "timed") {
    return mode_timed<Proto>(spec, seed, args.get_double("seconds", 20.0),
                             cpu);
  }
  if (mode == "traced") {
    return mode_traced<Proto>(spec, seed,
                              args.get_string("trace-file", "trace.json"));
  }
  throw ContractViolation("--mode=" + mode +
                          " is not one of setup|timed|traced");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv);
    const std::string name = args.get_string("workload", "");
    for (const Spec& spec : kSpecs) {
      if (name != spec.name) continue;
      if (spec.three_majority) {
        return dispatch<ThreeMajorityAsync<CsrTopology>>(spec, args);
      }
      return dispatch<TwoChoicesAsync<CsrTopology>>(spec, args);
    }
    std::fprintf(stderr, "error: --workload=%s is not a workload\n",
                 name.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
