#include "graph/adjacency.hpp"

namespace plurality {

AdjacencyList::AdjacencyList(const std::vector<std::vector<NodeId>>& lists) {
  offsets_.reserve(lists.size() + 1);
  offsets_.push_back(0);
  std::uint64_t total = 0;
  for (const auto& row : lists) {
    total += row.size();
    offsets_.push_back(total);
  }
  edges_.reserve(total);
  for (const auto& row : lists) {
    edges_.insert(edges_.end(), row.begin(), row.end());
  }
}

AdjacencyList::AdjacencyList(std::vector<std::uint64_t> offsets,
                             std::vector<NodeId> edges)
    : offsets_(std::move(offsets)), edges_(std::move(edges)) {
  PC_EXPECTS(!offsets_.empty() && offsets_.front() == 0);
  PC_EXPECTS(offsets_.back() == edges_.size());
}

}  // namespace plurality
