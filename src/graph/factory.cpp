#include "graph/factory.hpp"

#if __has_include(<unistd.h>)
#include <unistd.h>
#endif

#include <cmath>

#include "support/assert.hpp"

namespace plurality {

namespace {

[[noreturn]] void bad_flag(const std::string& flag, const std::string& value,
                           const char* expected) {
  throw ContractViolation(flag + " expects " + expected + ", got '" + value +
                          "'");
}

std::string trimmed(double value) {
  std::string s = std::to_string(value);
  while (s.size() > 1 && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

/// Physical memory in GB; 0 where the platform cannot tell.
double physical_gb() {
#ifdef _SC_PHYS_PAGES
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page_bytes = sysconf(_SC_PAGE_SIZE);
  if (pages > 0 && page_bytes > 0) {
    return static_cast<double>(pages) * static_cast<double>(page_bytes) / 1e9;
  }
#endif
  return 0.0;
}

/// Memory preflight for the dense random families, whose edge count
/// grows as rate x n^2: rejects a build whose expected adjacency (two
/// NodeIds per edge) exceeds physical memory, naming the flags, before
/// any edge is allocated. The build itself peaks higher, so a passing
/// build is not guaranteed to fit.
void preflight_edges(std::uint64_t n, double edges,
                     const std::string& flags) {
  const double gb = 2.0 * edges * sizeof(NodeId) / 1e9;
  const double physical = physical_gb();
  if (physical > 0.0 && gb > physical) {
    throw ContractViolation(
        flags + " at --n=" + std::to_string(n) + " projects " +
        trimmed(std::round(gb)) + " GB of adjacency, more than the " +
        trimmed(std::round(physical)) +
        " GB of physical memory; lower --n or the rates");
  }
}

}  // namespace

GraphKind parse_graph_kind(const std::string& name) {
  if (name == "complete") return GraphKind::kComplete;
  if (name == "ring") return GraphKind::kRing;
  if (name == "torus") return GraphKind::kTorus;
  if (name == "er") return GraphKind::kErdosRenyi;
  if (name == "regular") return GraphKind::kRandomRegular;
  if (name == "sbm") return GraphKind::kSbm;
  throw ContractViolation(
      "--graph=" + name +
      " is not one of complete|ring|torus|er|regular|sbm");
}

void GraphSpec::validate() const {
  if (!(er_p >= 0.0 && er_p <= 1.0)) {
    bad_flag("--graph-p", trimmed(er_p),
             "a probability in [0, 1] (0 = auto 3 ln n / n)");
  }
  if (degree < 1) {
    bad_flag("--graph-degree", std::to_string(degree), "an integer >= 1");
  }
  if (blocks < 1) {
    bad_flag("--graph-blocks", std::to_string(blocks), "an integer >= 1");
  }
  if (!(p_in > 0.0 && p_in <= 1.0)) {
    bad_flag("--graph-pin", trimmed(p_in), "a probability in (0, 1]");
  }
  if (!(p_out >= 0.0 && p_out <= 1.0)) {
    bad_flag("--graph-pout", trimmed(p_out), "a probability in [0, 1]");
  }
}

std::string GraphSpec::label() const {
  switch (kind) {
    case GraphKind::kComplete: return "complete";
    case GraphKind::kRing: return "ring";
    case GraphKind::kTorus: return "torus";
    case GraphKind::kErdosRenyi:
      return er_p > 0.0 ? "er(p=" + trimmed(er_p) + ")" : "er(p=3lnN/n)";
    case GraphKind::kRandomRegular:
      return "regular(d=" + std::to_string(degree) + ")";
    case GraphKind::kSbm:
      return "sbm(b=" + std::to_string(blocks) + ",pin=" + trimmed(p_in) +
             ",pout=" + trimmed(p_out) + ")";
  }
  return "unknown";
}

AnyGraph make_graph(const GraphSpec& spec, std::uint64_t n, Xoshiro256& rng) {
  spec.validate();
  switch (spec.kind) {
    case GraphKind::kComplete:
      return CompleteGraph(n);
    case GraphKind::kRing:
      return RingGraph(n);
    case GraphKind::kTorus: {
      const auto side = static_cast<std::uint32_t>(
          std::sqrt(static_cast<double>(n)));
      if (side < 3) {
        bad_flag("--graph", "torus",
                 "n >= 9 (the torus needs a side of at least 3)");
      }
      return TorusGraph(side, side);
    }
    case GraphKind::kErdosRenyi: {
      const double p =
          spec.er_p > 0.0
              ? spec.er_p
              : 3.0 * std::log(static_cast<double>(n)) /
                    static_cast<double>(n);
      const auto nd = static_cast<double>(n);
      preflight_edges(n, p * nd * (nd - 1.0) / 2.0,
                      "--graph=er with --graph-p=" + trimmed(p));
      ErdosRenyiGraph g(n, p, rng);
      // Protocols sample a neighbor of *every* node; an isolated node
      // would trip an opaque assert deep inside a worker repetition,
      // so reject the build here with the flag named instead.
      if (const std::uint64_t isolated = g.num_isolated(); isolated > 0) {
        throw ContractViolation(
            "--graph-p=" + trimmed(p) + " left " +
            std::to_string(isolated) + " of " + std::to_string(n) +
            " nodes isolated; protocols sample a neighbor of every node "
            "— use p >= ~3 ln n / n (the --graph-p=0 auto default)");
      }
      return g;
    }
    case GraphKind::kRandomRegular: {
      if (spec.degree >= n) {
        bad_flag("--graph-degree", std::to_string(spec.degree),
                 "a degree below n");
      }
      if ((n * spec.degree) % 2 != 0) {
        bad_flag("--graph-degree", std::to_string(spec.degree),
                 "n * degree to be even (handshake parity)");
      }
      return RandomRegularGraph(n, spec.degree, rng);
    }
    case GraphKind::kSbm: {
      if (spec.blocks > n) {
        bad_flag("--graph-blocks", std::to_string(spec.blocks),
                 "at most n blocks");
      }
      // Within-block pairs as if the blocks were equal (exact when
      // --graph-blocks divides n).
      const auto nd = static_cast<double>(n);
      const double within = nd * (nd / spec.blocks - 1.0) / 2.0;
      preflight_edges(n,
                      spec.p_in * within +
                          spec.p_out * (nd * (nd - 1.0) / 2.0 - within),
                      "--graph=sbm with --graph-pin=" + trimmed(spec.p_in) +
                          ", --graph-pout=" + trimmed(spec.p_out) +
                          ", --graph-blocks=" + std::to_string(spec.blocks));
      StochasticBlockModelGraph g(n, spec.blocks, spec.p_in, spec.p_out,
                                  rng);
      // Same policy as Erdős–Rényi: isolated nodes must fail loudly at
      // build time, naming the rates that caused them.
      if (const std::uint64_t isolated = g.num_isolated(); isolated > 0) {
        throw ContractViolation(
            "--graph-pin=" + trimmed(spec.p_in) + " with --graph-pout=" +
            trimmed(spec.p_out) + " left " + std::to_string(isolated) +
            " of " + std::to_string(n) +
            " nodes isolated; protocols sample a neighbor of every node "
            "— raise the rates or lower --graph-blocks");
      }
      return g;
    }
  }
  throw ContractViolation("unreachable graph kind");
}

std::uint64_t num_nodes(const AnyGraph& graph) {
  return std::visit([](const auto& g) { return g.num_nodes(); }, graph);
}

}  // namespace plurality
