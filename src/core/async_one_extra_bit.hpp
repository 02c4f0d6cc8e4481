#pragma once

/// \file async_one_extra_bit.hpp
/// The paper's main contribution (§3): OneExtraBit adapted to the
/// asynchronous model via weak synchronicity.
///
/// Every node keeps a *real time* (count of its own ticks) and a
/// *working time* (program counter into the AsyncSchedule). On a tick
/// the node executes the instruction its working time points at, then
/// advances it. The Sync Gadget sub-phase re-anchors working times to
/// the median of sampled real times, keeping all but o(n) nodes within
/// O(Delta) of each other so the Two-Choices / commit / Bit-Propagation
/// steps interleave correctly despite Poisson clock jitter.
///
/// Part 1 (num_phases phases) drives the plurality color to support
/// (1 - eps) n; part 2 (the endgame, §3.2) is plain asynchronous
/// Two-Choices run for Theta(log n) working-time units.
///
/// Engineering guard, documented deviation from the paper's text: a
/// node jumps at most once per phase (tracked in last_jump_phase_), so
/// a median landing *before* the node's own jump step cannot cause a
/// jump-replay loop. On the typical path the median lands just past the
/// phase end and the guard never binds.
///
/// Bit representation: the paper defines the bit as "set iff the node
/// changed its opinion in the (current phase's) Two-Choices sub-phase".
/// We store it as a phase tag (bit_phase_[u] == phase+1 means "set in
/// `phase`", 0 means unset) rather than a boolean: a plain boolean
/// relies on every node executing its commit step each phase to clear
/// staleness, and a straggler that skips a commit (a forward jump, or a
/// persistently slow clock) would otherwise serve *last phase's* color
/// as a fresh bit during Bit-Propagation, poisoning the amplification.
/// Phase-tagged bits make cross-phase reads inert, which is exactly the
/// paper's semantics under desynchronization.

#include <cstdint>
#include <utility>
#include <vector>

#include "core/schedule.hpp"
#include "core/sync_gadget.hpp"
#include "graph/graph.hpp"
#include "opinion/assignment.hpp"
#include "opinion/table.hpp"
#include "rng/xoshiro256.hpp"
#include "support/assert.hpp"
#include "support/math.hpp"

namespace plurality {

template <GraphTopology G>
class AsyncOneExtraBit {
 public:
  /// `schedule` must have been built for this n and k (or stricter).
  AsyncOneExtraBit(const G& graph, Assignment assignment,
                   AsyncSchedule schedule)
      : graph_(&graph),
        schedule_(std::move(schedule)),
        table_(std::move(assignment.colors), assignment.num_colors),
        gadget_(table_.num_nodes(),
                static_cast<std::uint32_t>(
                    std::max<std::uint64_t>(schedule_.sync_ticks(), 1))) {
    PC_EXPECTS(graph.num_nodes() == table_.num_nodes());
    PC_EXPECTS(table_.num_nodes() > 0);
    const std::uint64_t n = table_.num_nodes();
    working_time_.assign(n, 0);
    real_ticks_.assign(n, 0);
    intermediate_.assign(n, 0);
    has_intermediate_.assign(n, 0);
    bit_phase_.assign(n, 0);
    finished_.assign(n, 0);
    last_jump_phase_.assign(n, kNoJump);
  }

  /// Convenience factory deriving the schedule from the assignment.
  static AsyncOneExtraBit make(const G& graph, Assignment assignment,
                               AsyncParams params = {}) {
    AsyncSchedule schedule(graph.num_nodes(), assignment.num_colors, params);
    return AsyncOneExtraBit(graph, std::move(assignment), schedule);
  }

  void on_tick(NodeId u, Xoshiro256& rng) {
    ++real_ticks_[u];
    const std::uint64_t wt = working_time_[u];
    switch (schedule_.op_at(wt)) {
      case AsyncSchedule::Op::kTwoChoicesSample: {
        const NodeId v = graph_->sample_neighbor(u, rng);
        const NodeId w = graph_->sample_neighbor(u, rng);
        const ColorId cv = table_.color(v);
        if (cv == table_.color(w)) {
          intermediate_[u] = cv;
          has_intermediate_[u] = 1;
        } else {
          has_intermediate_[u] = 0;
        }
        break;
      }
      case AsyncSchedule::Op::kCommit: {
        const auto tag =
            static_cast<std::uint32_t>(schedule_.phase_of(wt)) + 1;
        if (has_intermediate_[u]) {
          table_.set_color(u, intermediate_[u]);
          bit_phase_[u] = tag;
          has_intermediate_[u] = 0;
        } else {
          bit_phase_[u] = 0;
        }
        break;
      }
      case AsyncSchedule::Op::kBitProp: {
        const auto tag =
            static_cast<std::uint32_t>(schedule_.phase_of(wt)) + 1;
        if (bit_phase_[u] != tag) {
          const NodeId v = graph_->sample_neighbor(u, rng);
          if (bit_phase_[v] == tag) {
            table_.set_color(u, table_.color(v));
            bit_phase_[u] = tag;
          }
        }
        break;
      }
      case AsyncSchedule::Op::kSyncSample: {
        const NodeId v = graph_->sample_neighbor(u, rng);
        gadget_.record(u, static_cast<std::int64_t>(real_ticks_[v]) -
                              static_cast<std::int64_t>(real_ticks_[u]));
        break;
      }
      case AsyncSchedule::Op::kJump: {
        const std::uint64_t phase = schedule_.phase_of(wt);
        if (last_jump_phase_[u] != phase && gadget_.count(u) > 0) {
          const std::int64_t target =
              static_cast<std::int64_t>(real_ticks_[u]) +
              gadget_.median_offset(u);
          const auto new_wt =
              static_cast<std::uint64_t>(std::max<std::int64_t>(target, 0));
          jump_distance_total_ +=
              new_wt >= wt ? new_wt - wt : wt - new_wt;
          ++jumps_performed_;
          working_time_[u] = new_wt;
          last_jump_phase_[u] = static_cast<std::uint32_t>(phase);
          gadget_.clear(u);
          return;  // the jump set the program counter; do not advance it
        }
        gadget_.clear(u);
        break;
      }
      case AsyncSchedule::Op::kEndgame: {
        const NodeId v = graph_->sample_neighbor(u, rng);
        const NodeId w = graph_->sample_neighbor(u, rng);
        const ColorId cv = table_.color(v);
        if (cv == table_.color(w)) table_.set_color(u, cv);
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

  std::uint64_t num_nodes() const noexcept { return table_.num_nodes(); }

  /// Done on consensus (success) or when every node ran off the end of
  /// its program (failure — the engine reports consensus=false).
  bool done() const noexcept {
    return table_.has_consensus() || finished_count_ == table_.num_nodes();
  }

  const OpinionTable& table() const noexcept { return table_; }
  OpinionTable& mutable_table() noexcept { return table_; }
  const AsyncSchedule& schedule() const noexcept { return schedule_; }

  // --- diagnostics for experiments E7 / E11 and tests ------------------

  /// max - min of node working times (O(n)); 0 for an empty population.
  std::uint64_t working_time_spread() const noexcept {
    if (working_time_.empty()) return 0;
    std::uint64_t lo = working_time_[0];
    std::uint64_t hi = working_time_[0];
    for (const auto wt : working_time_) {
      lo = std::min(lo, wt);
      hi = std::max(hi, wt);
    }
    return hi - lo;
  }

  /// Median node working time (O(n)). Requires a non-empty population
  /// (guaranteed by the constructor).
  std::uint64_t median_working_time() const {
    PC_EXPECTS(!working_time_.empty());
    std::vector<std::uint64_t> copy = working_time_;
    return median_inplace(std::span<std::uint64_t>(copy));
  }

  /// Fraction of nodes whose working time is more than `window` from
  /// the median — the paper's "poorly synchronized" nodes (O(n)).
  double fraction_poorly_synced(std::uint64_t window) const {
    const std::uint64_t med = median_working_time();
    std::uint64_t bad = 0;
    for (const auto wt : working_time_) {
      const std::uint64_t dev = wt >= med ? wt - med : med - wt;
      if (dev > window) ++bad;
    }
    return static_cast<double>(bad) /
           static_cast<double>(working_time_.size());
  }

  std::uint64_t working_time_of(NodeId u) const {
    PC_EXPECTS(u < working_time_.size());
    return working_time_[u];
  }

  std::uint64_t real_ticks_of(NodeId u) const {
    PC_EXPECTS(u < real_ticks_.size());
    return real_ticks_[u];
  }

  /// True iff u's bit is set for *some* phase (diagnostics only; the
  /// protocol itself always compares against the current phase tag).
  bool bit_of(NodeId u) const {
    PC_EXPECTS(u < bit_phase_.size());
    return bit_phase_[u] != 0;
  }

  std::uint64_t bits_set() const noexcept {
    std::uint64_t total = 0;
    for (const auto b : bit_phase_) total += (b != 0);
    return total;
  }

  std::uint64_t nodes_finished() const noexcept { return finished_count_; }
  std::uint64_t jumps_performed() const noexcept { return jumps_performed_; }

  /// Mean absolute working-time displacement per executed jump.
  double mean_jump_distance() const noexcept {
    return jumps_performed_ == 0
               ? 0.0
               : static_cast<double>(jump_distance_total_) /
                     static_cast<double>(jumps_performed_);
  }

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
  std::uint64_t jumps_performed_ = 0;
  std::uint64_t jump_distance_total_ = 0;
};

}  // namespace plurality
