#pragma once

/// \file random_regular.hpp
/// Random d-regular graph via the configuration model (stub matching)
/// with switch repair. One shuffle pairs the stubs straight into a flat
/// CSR (row u is [u*d, (u+1)*d)); each self-loop or duplicate edge of
/// the pairing is then removed by a random double-edge switch
/// {x,y},{u,v} -> {x,u},{y,v} against a uniformly drawn edge, kept only
/// when it lowers the number of defective stubs. For d << n the
/// result is simple (the pairing has O(d^2) defects, each repaired on
/// the first draw almost always). Repair attempts are bounded: when d is
/// close to n a defect can survive, and it stays as parallel stubs,
/// counted by defects(), which keeps sampling well-defined (a neighbor
/// is drawn per stub). Degrees are exactly d either way.

#include <cstdint>

#include "graph/adjacency.hpp"
#include "graph/graph.hpp"
#include "rng/xoshiro256.hpp"

namespace plurality {

class RandomRegularGraph {
 public:
  /// Samples a d-regular graph on n nodes. Requires n >= 2, d >= 1,
  /// d < n, and n*d even (handshake parity). Deterministic per rng state.
  RandomRegularGraph(std::uint64_t n, std::uint32_t d, Xoshiro256& rng);

  std::uint64_t num_nodes() const noexcept { return adjacency_.num_nodes(); }
  std::uint64_t degree(NodeId u) const { return adjacency_.degree(u); }

  /// Stubs left as self-loops or duplicates after repair: every
  /// self-loop slot plus each row's extra copies of a neighbor. 0 unless
  /// d is close to n.
  std::uint64_t defects() const noexcept { return defects_; }

  NodeId sample_neighbor(NodeId u, Xoshiro256& rng) const {
    return adjacency_.sample_neighbor(u, rng);
  }

  std::span<const NodeId> neighbors(NodeId u) const {
    return adjacency_.neighbors(u);
  }

  /// The backing CSR storage (for graph/csr.hpp's borrowed flat view).
  const AdjacencyList& adjacency() const noexcept { return adjacency_; }

 private:
  AdjacencyList adjacency_;
  std::uint64_t defects_ = 0;
};

}  // namespace plurality
