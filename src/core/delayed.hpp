#pragma once

/// \file delayed.hpp
/// The delayed-response OneExtraBit protocol: the response-delay
/// extension of the source paper (§4) generalized to arbitrary
/// edge-latency models (sim/latency.hpp, after Bankhamer et al.).
///
/// Model implemented here: contacting a peer is instantaneous and the
/// peer answers immediately, but the answer travels back for a random
/// time drawn from the driver's LatencyModel. The answer therefore
/// carries the peer's state *as of the query tick* and is applied on
/// delivery. Answers arriving after the relevant step's deadline (e.g.
/// a two-choices answer arriving after the node already committed,
/// detected via a phase tag) are dropped — exactly the kind of
/// straggler the paper's tactical waiting blocks absorb.
///
/// The protocol never samples a delay itself: the messaging driver
/// draws each message's latency from its model at enqueue time (the
/// RNG-ownership invariant in continuous_engine.hpp). Run it with
/// run_continuous_messaging(proto, latency_model, ...); experiment E10
/// shows constant mean delays leave the Theta(log n) run time intact.
/// Being a stateful tick machine, it has no query()/apply_query() split
/// for the sharded delivery queues, where Two-Choices and 3-Majority
/// run under latency.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/schedule.hpp"
#include "core/sync_gadget.hpp"
#include "graph/graph.hpp"
#include "opinion/assignment.hpp"
#include "opinion/table.hpp"
#include "rng/xoshiro256.hpp"
#include "sim/continuous_engine.hpp"
#include "support/assert.hpp"

namespace plurality {

/// The full asynchronous OneExtraBit protocol under delayed responses.
/// Identical working-time program to AsyncOneExtraBit; the sample steps
/// post delayed answers instead of reading peers synchronously.
template <GraphTopology G>
class AsyncOneExtraBitDelayed {
 public:
  enum class Kind : std::uint8_t { kTwoChoices, kBitProp, kSync, kEndgame };

  struct Message {
    Kind kind;
    std::uint32_t phase;      ///< phase tag at query time (staleness check)
    ColorId color_a;          ///< first sampled color (or copied color)
    ColorId color_b;          ///< second sampled color (two-choices only)
    std::uint8_t peer_bit;    ///< peer's bit (bit-propagation only)
    std::int64_t peer_ticks;  ///< peer's real time (sync samples only)
  };

  AsyncOneExtraBitDelayed(const G& graph, Assignment assignment,
                          AsyncSchedule schedule)
      : graph_(&graph),
        schedule_(schedule),
        table_(std::move(assignment.colors), assignment.num_colors),
        gadget_(table_.num_nodes(),
                static_cast<std::uint32_t>(
                    std::max<std::uint64_t>(schedule.sync_ticks(), 1))) {
    PC_EXPECTS(graph.num_nodes() == table_.num_nodes());
    const std::uint64_t n = table_.num_nodes();
    working_time_.assign(n, 0);
    real_ticks_.assign(n, 0);
    intermediate_.assign(n, 0);
    has_intermediate_.assign(n, 0);
    bit_phase_.assign(n, 0);
    finished_.assign(n, 0);
    last_jump_phase_.assign(n, kNoJump);
  }

  static AsyncOneExtraBitDelayed make(const G& graph, Assignment assignment,
                                      AsyncParams params = {}) {
    AsyncSchedule schedule(graph.num_nodes(), assignment.num_colors, params);
    return AsyncOneExtraBitDelayed(graph, std::move(assignment), schedule);
  }

  void on_tick(NodeId u, Xoshiro256& rng, double /*now*/,
               Outbox<Message>& out) {
    ++real_ticks_[u];
    const std::uint64_t wt = working_time_[u];
    const auto phase = static_cast<std::uint32_t>(schedule_.phase_of(wt));
    switch (schedule_.op_at(wt)) {
      case AsyncSchedule::Op::kTwoChoicesSample: {
        const NodeId v = graph_->sample_neighbor(u, rng);
        const NodeId w = graph_->sample_neighbor(u, rng);
        out.post(u, Message{Kind::kTwoChoices, phase, table_.color(v),
                            table_.color(w), 0, 0});
        has_intermediate_[u] = 0;  // reset; the answer may re-arm it
        break;
      }
      case AsyncSchedule::Op::kCommit: {
        if (has_intermediate_[u]) {
          table_.set_color(u, intermediate_[u]);
          bit_phase_[u] = phase + 1;
          has_intermediate_[u] = 0;
        } else {
          bit_phase_[u] = 0;
        }
        break;
      }
      case AsyncSchedule::Op::kBitProp: {
        if (bit_phase_[u] != phase + 1) {
          const NodeId v = graph_->sample_neighbor(u, rng);
          // Phase-tagged bit (see async_one_extra_bit.hpp): v's bit only
          // counts if it was set in the querier's current phase.
          const std::uint8_t fresh = bit_phase_[v] == phase + 1 ? 1 : 0;
          out.post(u, Message{Kind::kBitProp, phase, table_.color(v), 0,
                              fresh, 0});
        }
        break;
      }
      case AsyncSchedule::Op::kSyncSample: {
        const NodeId v = graph_->sample_neighbor(u, rng);
        out.post(u, Message{Kind::kSync, phase, 0, 0, 0,
                            static_cast<std::int64_t>(real_ticks_[v])});
        break;
      }
      case AsyncSchedule::Op::kJump: {
        if (last_jump_phase_[u] != phase && gadget_.count(u) > 0) {
          const std::int64_t target =
              static_cast<std::int64_t>(real_ticks_[u]) +
              gadget_.median_offset(u);
          working_time_[u] =
              static_cast<std::uint64_t>(std::max<std::int64_t>(target, 0));
          last_jump_phase_[u] = phase;
          gadget_.clear(u);
          return;
        }
        gadget_.clear(u);
        break;
      }
      case AsyncSchedule::Op::kEndgame: {
        const NodeId v = graph_->sample_neighbor(u, rng);
        const NodeId w = graph_->sample_neighbor(u, rng);
        out.post(u, Message{Kind::kEndgame, phase, table_.color(v),
                            table_.color(w), 0, 0});
        break;
      }
      case AsyncSchedule::Op::kDone: {
        if (!finished_[u]) {
          finished_[u] = 1;
          ++finished_count_;
        }
        break;
      }
      case AsyncSchedule::Op::kWait:
        break;
    }
    ++working_time_[u];
  }

  void on_message(NodeId u, const Message& m, Xoshiro256& /*rng*/,
                  double /*now*/, Outbox<Message>& /*out*/) {
    const std::uint64_t wt = working_time_[u];
    const auto current_phase =
        static_cast<std::uint32_t>(schedule_.phase_of(wt));
    switch (m.kind) {
      case Kind::kTwoChoices: {
        // Usable only until this phase's commit step (offset 3*Delta).
        if (m.phase != current_phase) return;
        if (wt % schedule_.phase_length() > 3 * schedule_.delta()) return;
        if (m.color_a == m.color_b) {
          intermediate_[u] = m.color_a;
          has_intermediate_[u] = 1;
        }
        break;
      }
      case Kind::kBitProp: {
        if (m.phase != current_phase) return;  // stale answer: drop
        if (bit_phase_[u] != current_phase + 1 && m.peer_bit) {
          table_.set_color(u, m.color_a);
          bit_phase_[u] = current_phase + 1;
        }
        break;
      }
      case Kind::kSync: {
        if (m.phase != current_phase) return;
        gadget_.record(u, m.peer_ticks -
                              static_cast<std::int64_t>(real_ticks_[u]));
        break;
      }
      case Kind::kEndgame: {
        if (m.color_a == m.color_b) table_.set_color(u, m.color_a);
        break;
      }
    }
  }

  std::uint64_t num_nodes() const noexcept { return table_.num_nodes(); }

  bool done() const noexcept {
    return table_.has_consensus() || finished_count_ == table_.num_nodes();
  }

  const OpinionTable& table() const noexcept { return table_; }
  const AsyncSchedule& schedule() const noexcept { return schedule_; }
  std::uint64_t nodes_finished() const noexcept { return finished_count_; }

 private:
  static constexpr std::uint32_t kNoJump = ~std::uint32_t{0};

  const G* graph_;
  AsyncSchedule schedule_;
  OpinionTable table_;
  SyncGadgetStore gadget_;
  std::vector<std::uint64_t> working_time_;
  std::vector<std::uint64_t> real_ticks_;
  std::vector<ColorId> intermediate_;
  std::vector<std::uint8_t> has_intermediate_;
  std::vector<std::uint32_t> bit_phase_;
  std::vector<std::uint8_t> finished_;
  std::vector<std::uint32_t> last_jump_phase_;
  std::uint64_t finished_count_ = 0;
};

}  // namespace plurality
