#include "sim/perturb.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <utility>

#include "graph/adjacency.hpp"
#include "rng/distributions.hpp"

namespace plurality {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();
constexpr std::uint64_t kUnlimited = ~std::uint64_t{0};

std::string fmt(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", value);
  return buf;
}

}  // namespace

PerturbKind parse_perturb_kind(const std::string& name) {
  if (name == "none") return PerturbKind::kNone;
  if (name == "inject") return PerturbKind::kInject;
  if (name == "crash") return PerturbKind::kCrash;
  if (name == "churn") return PerturbKind::kChurn;
  if (name == "adversary") return PerturbKind::kAdversary;
  throw ContractViolation("--perturb=" + name +
                          " is not one of none|inject|crash|churn|adversary");
}

PerturbTarget parse_perturb_target(const std::string& name) {
  if (name == "uniform") return PerturbTarget::kUniform;
  if (name == "hub") return PerturbTarget::kHub;
  throw ContractViolation("--perturb-target=" + name +
                          " is not one of uniform|hub");
}

void PerturbSpec::validate() const {
  if (kind == PerturbKind::kNone) return;
  if (!(rate > 0.0) || !std::isfinite(rate)) {
    throw ContractViolation(
        "--perturb-rate expects a finite value > 0, got " +
        std::to_string(rate));
  }
  if (!(start >= 0.0) || !std::isfinite(start)) {
    throw ContractViolation(
        "--perturb-start expects a finite value >= 0, got " +
        std::to_string(start));
  }
  if (kind == PerturbKind::kAdversary) {
    if (budget == 0) {
      throw ContractViolation(
          "--perturb=adversary requires an explicit corruption budget: "
          "pass --perturb-budget= >= 1");
    }
    if (!(interval > 0.0) || !std::isfinite(interval)) {
      throw ContractViolation(
          "--perturb-interval expects a finite value > 0, got " +
          std::to_string(interval));
    }
  }
}

std::string PerturbSpec::label() const {
  std::string out = perturb_kind_name(kind);
  if (kind == PerturbKind::kNone) return out;
  out += "(rate=" + fmt(rate);
  if (budget != 0) out += ",budget=" + std::to_string(budget);
  if (start != 0.0) out += ",start=" + fmt(start);
  if (kind == PerturbKind::kAdversary) {
    out += ",interval=" + fmt(interval);
  }
  out += ")";
  return out;
}

// ---------------------------------------------------------------------------
// ChurnableCsr

namespace {

std::vector<std::uint64_t> copy_offsets(const CsrTopology& source) {
  PC_EXPECTS(!source.is_implicit_complete());
  const std::uint64_t n = source.num_nodes();
  std::vector<std::uint64_t> offsets(n + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    offsets[u + 1] = offsets[u] + source.degree(u);
  }
  return offsets;
}

std::vector<NodeId> copy_edges(const CsrTopology& source) {
  const std::uint64_t n = source.num_nodes();
  std::vector<NodeId> edges;
  for (NodeId u = 0; u < n; ++u) {
    const auto row = source.neighbors(u);
    edges.insert(edges.end(), row.begin(), row.end());
  }
  return edges;
}

}  // namespace

ChurnableCsr::ChurnableCsr(const CsrTopology& source)
    : offsets_(copy_offsets(source)),
      edges_(copy_edges(source)),
      view_(CsrTopology::borrowed(offsets_, edges_)) {
  const std::uint64_t n = offsets_.size() - 1;
  const std::uint64_t slots = edges_.size();
  owner_.resize(slots);
  for (NodeId u = 0; u < n; ++u) {
    for (std::uint64_t s = offsets_[u]; s < offsets_[u + 1]; ++s) {
      owner_[s] = u;
    }
  }
  // Pair each directed slot with its reverse: sort slot indices by the
  // undirected edge key, then by owner so a key held k times lists its
  // k min-endpoint slots before its k max-endpoint slots. Random-regular
  // sources with d close to n (graph/random_regular.hpp) may keep
  // multi-edges and self-loops, so a key group can be longer than two.
  std::vector<std::uint64_t> order(slots);
  std::iota(order.begin(), order.end(), 0);
  const auto key = [&](std::uint64_t s) {
    const std::uint64_t a = owner_[s];
    const std::uint64_t b = edges_[s];
    return (std::min(a, b) << 32) | std::max(a, b);
  };
  std::sort(order.begin(), order.end(),
            [&](std::uint64_t a, std::uint64_t b) {
              if (key(a) != key(b)) return key(a) < key(b);
              if (owner_[a] != owner_[b]) return owner_[a] < owner_[b];
              return a < b;
            });
  mirror_.assign(slots, 0);
  PC_EXPECTS(slots % 2 == 0);
  for (std::uint64_t i = 0; i < slots;) {
    std::uint64_t end = i;
    while (end < slots && key(order[end]) == key(order[i])) ++end;
    const std::uint64_t len = end - i;
    PC_EXPECTS(len % 2 == 0);
    if (owner_[order[i]] == edges_[order[i]]) {
      // Self-loop bundle: every slot is u -> u, pair them up in order.
      for (std::uint64_t s = i; s < end; s += 2) {
        mirror_[order[s]] = order[s + 1];
        mirror_[order[s + 1]] = order[s];
      }
    } else {
      // k copies of {u,v}: slots i..i+k-1 are u -> v, the rest v -> u.
      const std::uint64_t half = len / 2;
      for (std::uint64_t s = 0; s < half; ++s) {
        const std::uint64_t a = order[i + s];
        const std::uint64_t b = order[i + half + s];
        PC_EXPECTS(owner_[a] == edges_[b] && owner_[b] == edges_[a]);
        mirror_[a] = b;
        mirror_[b] = a;
      }
    }
    i = end;
  }
  initial_defect_slots_ = count_defect_slots();
}

std::uint64_t ChurnableCsr::count_defect_slots() const {
  // try_swap never creates a self-loop or a duplicate (shared endpoints
  // and existing edges are rejected), so this count is non-increasing
  // under rewiring.
  std::uint64_t defects = 0;
  const std::uint64_t n = offsets_.size() - 1;
  RowDefectCounter counter(n);
  for (NodeId u = 0; u < n; ++u) defects += counter.count(u, view_.neighbors(u));
  return defects;
}

bool ChurnableCsr::has_edge(NodeId u, NodeId v) const {
  for (std::uint64_t s = offsets_[u]; s < offsets_[u + 1]; ++s) {
    if (edges_[s] == v) return true;
  }
  return false;
}

bool ChurnableCsr::try_swap(std::uint64_t slot_a, std::uint64_t slot_b) {
  const NodeId u = owner_[slot_a];
  const NodeId v = edges_[slot_a];
  const NodeId a = owner_[slot_b];
  const NodeId b = edges_[slot_b];
  // {u,v},{a,b} -> {u,b},{a,v}: reject shared endpoints (self-loops /
  // degenerate overlap) and swaps that would duplicate an edge.
  if (u == a || u == b || v == a || v == b) return false;
  if (has_edge(u, b) || has_edge(a, v)) return false;
  const std::uint64_t rev_a = mirror_[slot_a];  // v -> u
  const std::uint64_t rev_b = mirror_[slot_b];  // b -> a
  edges_[slot_a] = b;  // u -> b
  edges_[rev_b] = u;   // b -> u
  edges_[slot_b] = v;  // a -> v
  edges_[rev_a] = a;   // v -> a
  mirror_[slot_a] = rev_b;
  mirror_[rev_b] = slot_a;
  mirror_[slot_b] = rev_a;
  mirror_[rev_a] = slot_b;
  return true;
}

void ChurnableCsr::rewire_node(NodeId u, Xoshiro256& rng) {
  PC_EXPECTS(u + 1 < offsets_.size());
  const std::uint64_t slots = edges_.size();
  for (std::uint64_t s = offsets_[u]; s < offsets_[u + 1]; ++s) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      const std::uint64_t partner = uniform_below(rng, slots);
      if (try_swap(s, partner)) break;
    }
  }
}

bool ChurnableCsr::check_consistent() const {
  for (std::uint64_t s = 0; s < edges_.size(); ++s) {
    if (mirror_[mirror_[s]] != s) return false;
    if (owner_[mirror_[s]] != edges_[s]) return false;
    if (edges_[mirror_[s]] != owner_[s]) return false;
  }
  // Rewiring may *heal* source defects but must never add any.
  return count_defect_slots() <= initial_defect_slots_;
}

// ---------------------------------------------------------------------------
// Perturber

Perturber::Perturber(const PerturbSpec& spec, std::uint64_t n,
                     ColorId num_colors, std::uint64_t seed,
                     const CsrTopology* topology, ChurnableCsr* churn)
    : spec_(spec),
      n_(n),
      num_colors_(num_colors),
      rng_(seed),
      topo_(topology),
      churn_(churn) {
  PC_EXPECTS(n_ >= 1);
  PC_EXPECTS(num_colors_ >= 1);
  spec_.validate();
  if (spec_.kind == PerturbKind::kChurn && churn_ == nullptr) {
    // K_n is invariant under degree-preserving rewiring, so churn on
    // the implicit complete view degenerates to the color reset; any
    // other topology needs a mutable adjacency to rewire.
    PC_EXPECTS(topo_ == nullptr || topo_->is_implicit_complete());
  }
  if (churn_ != nullptr) PC_EXPECTS(churn_->num_nodes() == n_);
  schedule_first();
}

void Perturber::schedule_first() {
  switch (spec_.kind) {
    case PerturbKind::kNone:
      remaining_ = 0;
      next_time_ = kInfinity;
      return;
    case PerturbKind::kAdversary:
      remaining_ = spec_.budget;  // validate() guarantees >= 1
      next_time_ = spec_.start;
      return;
    case PerturbKind::kInject:
    case PerturbKind::kCrash:
    case PerturbKind::kChurn:
      remaining_ = spec_.budget == 0 ? kUnlimited : spec_.budget;
      next_time_ = spec_.start + exponential_unit(rng_) / spec_.rate;
      return;
  }
}

void Perturber::advance_schedule() {
  if (remaining_ == 0) {
    next_time_ = kInfinity;
    return;
  }
  if (spec_.kind == PerturbKind::kAdversary) {
    next_time_ += spec_.interval;
  } else {
    next_time_ += exponential_unit(rng_) / spec_.rate;
  }
}

void Perturber::drain_until(double now, const OpinionTable& table,
                            const SetColor& set_color) {
  while (remaining_ > 0 && next_time_ <= now) {
    if (spec_.kind == PerturbKind::kAdversary) {
      apply_adversary_sweep(table, set_color);
    } else {
      apply_poisson_event(table, set_color);
    }
    advance_schedule();
  }
}

void Perturber::drain_until(double now, OpinionTable& table) {
  drain_until(now, table,
              [&table](NodeId u, ColorId c) { table.set_color(u, c); });
}

NodeId Perturber::pick_live_uniform() {
  // Callers guarantee at least one live node.
  for (;;) {
    const auto u = static_cast<NodeId>(uniform_below(rng_, n_));
    if (allows_tick(u)) return u;
  }
}

NodeId Perturber::pick_live_by_degree() {
  if (topo_ == nullptr || topo_->is_implicit_complete()) {
    return pick_live_uniform();  // equal degrees: hub == uniform
  }
  // O(n) prefix walk per event; injections are rare relative to ticks.
  std::uint64_t total = 0;
  for (NodeId u = 0; u < n_; ++u) {
    if (allows_tick(u)) total += topo_->degree(u);
  }
  PC_EXPECTS(total > 0);
  std::uint64_t r = uniform_below(rng_, total);
  for (NodeId u = 0; u < n_; ++u) {
    if (!allows_tick(u)) continue;
    const std::uint64_t deg = topo_->degree(u);
    if (r < deg) return u;
    r -= deg;
  }
  return static_cast<NodeId>(n_ - 1);  // unreachable: r < total
}

ColorId Perturber::different_color(ColorId current) {
  if (num_colors_ <= 1) return current;
  const auto draw =
      static_cast<ColorId>(uniform_below(rng_, num_colors_ - 1));
  return draw < current ? draw : draw + 1;
}

void Perturber::mark_crashed(NodeId u, const OpinionTable& table) {
  if (crashed_.empty()) {
    crashed_.assign(n_, 0);
    crashed_support_.assign(table.num_colors(), 0);
  }
  PC_EXPECTS(!crashed_[u]);
  crashed_[u] = 1;
  ++crashed_count_;
  ++crashed_support_[table.color(u)];
}

void Perturber::apply_poisson_event(const OpinionTable& table,
                                    const SetColor& set_color) {
  if (crashed_count_ >= n_) {  // nobody left to perturb
    remaining_ = 0;
    return;
  }
  const double when = next_time_;
  switch (spec_.kind) {
    case PerturbKind::kInject: {
      const NodeId u = spec_.target == PerturbTarget::kHub
                           ? pick_live_by_degree()
                           : pick_live_uniform();
      const ColorId c = different_color(table.color(u));
      set_color(u, c);
      log_.push_back({when, PerturbKind::kInject, u, c});
      break;
    }
    case PerturbKind::kCrash: {
      const NodeId u = pick_live_uniform();
      mark_crashed(u, table);
      log_.push_back({when, PerturbKind::kCrash, u, table.color(u)});
      break;
    }
    case PerturbKind::kChurn: {
      const NodeId u = pick_live_uniform();
      // A fresh arrival takes the slot: independent uniform opinion,
      // incident edges rewired degree-preservingly.
      const auto c = static_cast<ColorId>(uniform_below(rng_, num_colors_));
      set_color(u, c);
      if (churn_ != nullptr) churn_->rewire_node(u, rng_);
      log_.push_back({when, PerturbKind::kChurn, u, c});
      break;
    }
    default:
      PC_EXPECTS(false);
  }
  --remaining_;
}

void Perturber::apply_adversary_sweep(const OpinionTable& table,
                                      const SetColor& set_color) {
  const std::uint64_t live_total = n_ - crashed_count_;
  if (live_total == 0) {
    remaining_ = 0;
    return;
  }
  // Live support = table support minus the frozen crashed holders.
  const auto live_support = [&](ColorId c) {
    const std::uint64_t held = table.support(c);
    return crashed_support_.empty() ? held : held - crashed_support_[c];
  };
  ColorId leading = 0;
  std::uint64_t best = 0;
  for (ColorId c = 0; c < table.num_colors(); ++c) {
    if (live_support(c) > best) {
      best = live_support(c);
      leading = c;
    }
  }
  // Target color: the strongest live challenger; when consensus briefly
  // holds every challenger is at 0 and the lowest-indexed other color
  // is revived — the RSS move that keeps the minority alive.
  ColorId runner_up = leading;
  std::uint64_t second = 0;
  for (ColorId c = 0; c < table.num_colors(); ++c) {
    if (c == leading) continue;
    if (runner_up == leading || live_support(c) > second) {
      second = live_support(c);
      runner_up = c;
    }
  }
  if (runner_up == leading) {  // one-color universe: nothing to flip to
    remaining_ = 0;
    return;
  }
  std::vector<NodeId> candidates;
  candidates.reserve(best);
  for (NodeId u = 0; u < n_; ++u) {
    if (allows_tick(u) && table.color(u) == leading) {
      candidates.push_back(u);
    }
  }
  if (candidates.empty()) return;  // observe again next interval
  const auto quota = static_cast<std::uint64_t>(
      std::ceil(spec_.rate * spec_.interval));
  const std::uint64_t m =
      std::min({remaining_, std::max<std::uint64_t>(quota, 1),
                static_cast<std::uint64_t>(candidates.size())});
  if (topo_ != nullptr && !topo_->is_implicit_complete()) {
    // Highest impact first: corrupt plurality holders with the most
    // same-color neighbors — the seed peers keep reinforcing.
    std::vector<std::pair<std::uint64_t, NodeId>> scored;
    scored.reserve(candidates.size());
    for (const NodeId u : candidates) {
      std::uint64_t same = 0;
      for (const NodeId v : topo_->neighbors(u)) {
        same += (table.color(v) == leading);
      }
      scored.emplace_back(same, u);
    }
    std::partial_sort(scored.begin(), scored.begin() + m, scored.end(),
                      [](const auto& a, const auto& b) {
                        return a.first != b.first ? a.first > b.first
                                                  : a.second < b.second;
                      });
    candidates.clear();
    for (std::uint64_t i = 0; i < m; ++i) {
      candidates.push_back(scored[i].second);
    }
  } else {
    // No stored adjacency (the clique): position is irrelevant by
    // vertex-transitivity, pick uniformly (partial Fisher–Yates).
    for (std::uint64_t i = 0; i < m; ++i) {
      const std::uint64_t j =
          i + uniform_below(rng_, candidates.size() - i);
      std::swap(candidates[i], candidates[j]);
    }
    candidates.resize(m);
  }
  for (std::uint64_t i = 0; i < m; ++i) {
    set_color(candidates[i], runner_up);
    log_.push_back(
        {next_time_, PerturbKind::kAdversary, candidates[i], runner_up});
  }
  remaining_ -= m;
}

double Perturber::live_agreement(const OpinionTable& table) const {
  const std::uint64_t live = n_ - crashed_count_;
  if (live == 0) return 1.0;  // vacuous: everyone crashed
  std::uint64_t best = 0;
  for (ColorId c = 0; c < table.num_colors(); ++c) {
    const std::uint64_t held = table.support(c);
    const std::uint64_t dead =
        crashed_support_.empty() ? 0 : crashed_support_[c];
    best = std::max(best, held - dead);
  }
  return static_cast<double>(best) / static_cast<double>(live);
}

// ---------------------------------------------------------------------------
// Recovery helpers

std::vector<double> recovery_times(const std::vector<PerturbEvent>& events,
                                   const std::vector<AgreementPoint>& trace,
                                   double threshold) {
  PC_EXPECTS(!trace.empty());
  std::vector<double> out;
  out.reserve(events.size());
  // Two-pointer sweep: events are in application order (nondecreasing
  // time), so the recovery cursor never moves backwards.
  std::size_t cursor = 0;
  for (const PerturbEvent& event : events) {
    while (cursor < trace.size() &&
           (trace[cursor].time < event.time ||
            trace[cursor].agreement < threshold)) {
      ++cursor;
    }
    if (cursor < trace.size()) {
      out.push_back(trace[cursor].time - event.time);
      // Later events may recover at the same or a later point; rewind
      // is never needed but the cursor must not advance past a point
      // that could serve the next event, so leave it in place.
    } else {
      // Censored: never recovered within the trace. Clamped at 0 for
      // events applied after the final sample.
      out.push_back(std::max(0.0, trace.back().time - event.time));
      cursor = trace.size();
    }
  }
  return out;
}

double agreement_at(const std::vector<AgreementPoint>& trace, double t) {
  PC_EXPECTS(!trace.empty());
  const auto after = std::upper_bound(
      trace.begin(), trace.end(), t,
      [](double value, const AgreementPoint& p) { return value < p.time; });
  if (after == trace.begin()) return trace.front().agreement;
  return std::prev(after)->agreement;
}

}  // namespace plurality
