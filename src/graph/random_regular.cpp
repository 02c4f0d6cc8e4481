#include "graph/random_regular.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <utility>
#include <vector>

#include "graph/adjacency.hpp"
#include "rng/distributions.hpp"
#include "support/assert.hpp"

namespace plurality {

namespace {

/// Partner draws per defective edge and round before the round moves
/// on. A sparse graph repairs on the first draw almost always; the bound
/// only matters when d is close to n.
constexpr int kRepairAttempts = 256;

/// One defective edge: a self-loop {x, x}, or one extra copy of {x, y}.
struct Defect {
  NodeId x;
  NodeId y;
};

/// The flat d-regular CSR edge array (row u is [u*d, (u+1)*d)) and the
/// switch moves that repair it.
class RegularRows {
 public:
  RegularRows(std::vector<NodeId> edges, std::uint32_t d)
      : edges_(std::move(edges)), d_(d), counter_(edges_.size() / d) {}

  std::vector<NodeId> release() && { return std::move(edges_); }

  std::uint64_t num_slots() const noexcept { return edges_.size(); }

  std::uint32_t count(NodeId u, NodeId v) const {
    std::uint32_t c = 0;
    for (std::uint64_t s = begin(u); s < end(u); ++s) c += edges_[s] == v;
    return c;
  }

  /// Row u's defect slots (RowDefectCounter). With `out`, appends one
  /// Defect per defective edge row u owns: the extra copies of {u, v}
  /// for v > u, then its self-loops.
  std::uint32_t defect_slots(NodeId u, std::vector<Defect>* out = nullptr) {
    const std::span<const NodeId> row(edges_.data() + begin(u), d_);
    if (!out) return counter_.count(u, row);
    std::uint32_t loop_slots = 0;
    const std::uint32_t slots = counter_.count(u, row, [&](NodeId v) {
      if (v == u) {
        ++loop_slots;
      } else if (u < v) {
        out->push_back({u, v});
      }
    });
    out->insert(out->end(), loop_slots / 2, Defect{u, u});
    return slots;
  }

  /// Every row's defect slots; with `out`, one Defect per defective edge.
  std::uint64_t scan(std::vector<Defect>* out) {
    std::uint64_t slots = 0;
    const std::uint64_t n = edges_.size() / d_;
    for (std::uint64_t u = 0; u < n; ++u) {
      slots += defect_slots(static_cast<NodeId>(u), out);
    }
    return slots;
  }

  /// Double-edge switch of the defective edge {x,y} against the edge at
  /// `slot`, {u,v}: {x,y},{u,v} -> {x,u},{y,v}. Kept only when it lowers
  /// the defect slots of the rows it touches, so it never creates a
  /// self-loop or duplicate unless it removes more (two self-loops may
  /// become one double edge); otherwise undone. Returns the defect slots
  /// removed, 0 when undone.
  std::uint32_t try_switch(NodeId x, NodeId y, std::uint64_t slot) {
    const auto u = static_cast<NodeId>(slot / d_);
    const NodeId v = edges_[slot];
    if ((u == x && v == y) || (u == y && v == x)) return 0;
    std::array<NodeId, 4> touched{x, y, u, v};
    std::sort(touched.begin(), touched.end());
    const auto last = std::unique(touched.begin(), touched.end());
    const auto local_defects = [&] {
      std::uint32_t slots = 0;
      for (auto w = touched.begin(); w != last; ++w) slots += defect_slots(*w);
      return slots;
    };
    const std::uint32_t before = local_defects();
    const std::uint64_t s = find(x, y, kNone);
    const std::uint64_t r = find(y, x, s);
    const std::uint64_t q = find(v, u, slot);
    edges_[s] = u;
    edges_[slot] = x;
    edges_[r] = v;
    edges_[q] = y;
    const std::uint32_t after = local_defects();
    if (after < before) return before - after;
    edges_[s] = y;
    edges_[slot] = v;
    edges_[r] = x;
    edges_[q] = u;
    return 0;
  }

 private:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  std::uint64_t begin(NodeId u) const noexcept {
    return static_cast<std::uint64_t>(u) * d_;
  }
  std::uint64_t end(NodeId u) const noexcept { return begin(u) + d_; }

  /// A slot of row u holding v other than `skip`.
  std::uint64_t find(NodeId u, NodeId v, std::uint64_t skip) const {
    std::uint64_t s = begin(u);
    while (s < end(u) && (edges_[s] != v || s == skip)) ++s;
    PC_ASSERT(s < end(u));
    return s;
  }

  std::vector<NodeId> edges_;
  std::uint32_t d_;
  RowDefectCounter counter_;
};

/// A uniform random perfect matching of the n*d stubs (one Fisher-Yates
/// shuffle, paired off in order), written straight into the rows.
std::vector<NodeId> pair_stubs(std::uint64_t n, std::uint32_t d,
                               Xoshiro256& rng) {
  std::vector<NodeId> stubs(n * d);
  for (std::uint64_t s = 0; s < stubs.size(); ++s) {
    stubs[s] = static_cast<NodeId>(s / d);
  }
  for (std::size_t i = stubs.size() - 1; i > 0; --i) {
    const std::size_t j = static_cast<std::size_t>(uniform_below(rng, i + 1));
    std::swap(stubs[i], stubs[j]);
  }
  std::vector<NodeId> edges(stubs.size());
  std::vector<std::uint32_t> filled(n, 0);
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    const NodeId a = stubs[i];
    const NodeId b = stubs[i + 1];
    edges[static_cast<std::uint64_t>(a) * d + filled[a]++] = b;
    edges[static_cast<std::uint64_t>(b) * d + filled[b]++] = a;
  }
  return edges;
}

}  // namespace

RandomRegularGraph::RandomRegularGraph(std::uint64_t n, std::uint32_t d,
                                       Xoshiro256& rng) {
  PC_EXPECTS(n >= 2);
  PC_EXPECTS(d >= 1);
  PC_EXPECTS(d < n);
  PC_EXPECTS((n * d) % 2 == 0);

  RegularRows rows(pair_stubs(n, d, rng), d);
  std::vector<Defect> pending;
  std::uint64_t defects = rows.scan(&pending);
  while (!pending.empty()) {
    const std::uint64_t start = defects;
    for (const Defect& e : pending) {
      // An earlier switch may have taken this edge as its partner.
      if (rows.count(e.x, e.y) < 2) continue;
      for (int attempt = 0; attempt < kRepairAttempts; ++attempt) {
        const std::uint32_t removed =
            rows.try_switch(e.x, e.y, uniform_below(rng, rows.num_slots()));
        defects -= removed;
        if (removed > 0) break;
      }
    }
    // Every kept switch lowers the count; a round that keeps none ends
    // the repair and leaves the survivors as defects.
    pending.clear();
    if (defects > 0 && defects < start) {
      const std::uint64_t rescanned = rows.scan(&pending);
      PC_ASSERT(rescanned == defects);
    }
  }
  defects_ = defects;

  std::vector<std::uint64_t> offsets(n + 1);
  for (std::uint64_t u = 0; u <= n; ++u) offsets[u] = u * d;
  adjacency_ = AdjacencyList(std::move(offsets), std::move(rows).release());
}

}  // namespace plurality
