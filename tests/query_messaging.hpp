#pragma once

// Test-local adapter: runs any DelayedShardableProtocol (query/apply
// split, e.g. TwoChoicesAsync, ThreeMajorityAsync) on the single-stream
// messaging driver. It keeps an independent latency reference for the
// sharded engine's delivery queues: a tick posts query() — the sampled
// neighbor colors as of the query time — and the delivered answer is
// resolved by apply_query() against the node's current color. Under
// kBlocking a per-node pending flag suppresses ticks while the node's
// query is in flight.
//
// The adapter drives `proto`'s table; `proto` must outlive it.

#include <cstdint>
#include <vector>

#include "opinion/table.hpp"
#include "sim/continuous_engine.hpp"
#include "sim/latency.hpp"
#include "sim/sharded_engine.hpp"

namespace plurality {

template <DelayedShardableProtocol P>
class QueryMessaging {
 public:
  using Message = typename P::Query;

  explicit QueryMessaging(
      P& proto, QueryDiscipline discipline = QueryDiscipline::kBlocking)
      : proto_(&proto),
        discipline_(discipline),
        pending_(proto.num_nodes(), 0) {}

  void on_tick(NodeId u, Xoshiro256& rng, double /*now*/,
               Outbox<Message>& out) {
    if (discipline_ == QueryDiscipline::kBlocking && pending_[u]) return;
    pending_[u] = 1;
    out.post(u, proto_->query(u, proto_->table(), rng));
  }

  void on_message(NodeId u, const Message& q, Xoshiro256& /*rng*/,
                  double /*now*/, Outbox<Message>& /*out*/) {
    pending_[u] = 0;
    proto_->mutable_table().set_color(
        u, proto_->apply_query(u, q, proto_->table()));
  }

  std::uint64_t num_nodes() const noexcept { return proto_->num_nodes(); }
  bool done() const noexcept { return proto_->done(); }
  const OpinionTable& table() const noexcept { return proto_->table(); }

 private:
  P* proto_;
  QueryDiscipline discipline_;
  std::vector<std::uint8_t> pending_;
};

}  // namespace plurality
