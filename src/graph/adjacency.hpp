#pragma once

/// \file adjacency.hpp
/// Compressed sparse adjacency storage shared by the random-graph
/// topologies (Erdős–Rényi, random regular). Rows are contiguous, so
/// neighbor sampling is one uniform draw plus one indexed load.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "rng/distributions.hpp"
#include "support/assert.hpp"

namespace plurality {

class AdjacencyList {
 public:
  AdjacencyList() = default;

  /// Builds CSR storage from per-node neighbor lists.
  explicit AdjacencyList(const std::vector<std::vector<NodeId>>& lists);

  /// Adopts ready CSR arrays: n+1 row offsets starting at 0 and ending
  /// at edges.size(), and the concatenated neighbor rows.
  AdjacencyList(std::vector<std::uint64_t> offsets, std::vector<NodeId> edges);

  std::uint64_t num_nodes() const noexcept { return offsets_.empty() ? 0 : offsets_.size() - 1; }

  std::uint64_t degree(NodeId u) const {
    PC_EXPECTS(u + 1 < offsets_.size());
    return offsets_[u + 1] - offsets_[u];
  }

  std::span<const NodeId> neighbors(NodeId u) const {
    PC_EXPECTS(u + 1 < offsets_.size());
    return {edges_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }

  /// Uniform random neighbor. Requires degree(u) > 0.
  NodeId sample_neighbor(NodeId u, Xoshiro256& rng) const {
    const auto row = neighbors(u);
    PC_EXPECTS(!row.empty());
    return row[uniform_below(rng, row.size())];
  }

  std::uint64_t num_edges() const noexcept { return edges_.size() / 2; }

  /// The raw CSR arrays (n+1 row offsets, concatenated neighbor rows),
  /// for components that want one flat view over every adjacency-backed
  /// family (graph/csr.hpp) without re-materializing the storage. The
  /// spans borrow this list's buffers and are invalidated with it.
  std::span<const std::uint64_t> row_offsets() const noexcept {
    return offsets_;
  }
  std::span<const NodeId> flat_edges() const noexcept { return edges_; }

 private:
  std::vector<std::uint64_t> offsets_;
  std::vector<NodeId> edges_;
};

/// Counts the defect slots of CSR rows: the slots of row u that hold u
/// itself (two per self-loop) plus its copies of a neighbor beyond the
/// first. O(degree) per row: each neighbor is stamped once per call in
/// scratch of one stamp per node. The random-regular builder and
/// ChurnableCsr (sim/perturb.hpp) share this one definition.
class RowDefectCounter {
 public:
  explicit RowDefectCounter(std::uint64_t num_nodes) : seen_(num_nodes, 0) {}

  /// Row u's defect slots; calls on_defect(v) once per defect slot, with
  /// v == u for a self-loop slot.
  template <class OnDefect>
  std::uint32_t count(NodeId u, std::span<const NodeId> row,
                      OnDefect&& on_defect) {
    ++epoch_;
    std::uint32_t slots = 0;
    for (const NodeId v : row) {
      PC_EXPECTS(v < seen_.size());
      if (v == u || seen_[v] == epoch_) {
        ++slots;
        on_defect(v);
      } else {
        seen_[v] = epoch_;
      }
    }
    return slots;
  }

  std::uint32_t count(NodeId u, std::span<const NodeId> row) {
    return count(u, row, [](NodeId) {});
  }

 private:
  std::vector<std::uint64_t> seen_;  ///< node -> last epoch it was seen
  std::uint64_t epoch_ = 0;          ///< one per count call
};

}  // namespace plurality
