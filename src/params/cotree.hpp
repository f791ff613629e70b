#pragma once

#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace lptsp {

/// Cotree of a cograph: internal nodes are unions (parallel) or joins
/// (series); leaves are vertices. Cographs are exactly the graphs of
/// modular-width <= 2, the canonical easy class for the paper's
/// Corollary 2 (Partition into Paths is FPT in modular-width).
struct Cotree {
  struct Node {
    bool is_leaf = false;
    bool is_series = false;  ///< join node (valid when !is_leaf)
    int vertex = -1;         ///< valid when is_leaf
    std::vector<int> children;
    std::vector<int> vertices;  ///< subtree vertex set (sorted)
  };
  std::vector<Node> nodes;
  int root = -1;

  [[nodiscard]] const Node& node(int id) const { return nodes[static_cast<std::size_t>(id)]; }
};

/// Build the cotree by recursive component / co-component splitting,
/// searched directly on the adjacency bit rows (no per-node subgraph or
/// complement copies); returns nullopt when the graph is not a cograph
/// (some induced subgraph is both connected and co-connected with >= 2
/// vertices).
std::optional<Cotree> build_cotree(const Graph& graph);

/// Cograph test (P4-free).
bool is_cograph(const Graph& graph);

}  // namespace lptsp
