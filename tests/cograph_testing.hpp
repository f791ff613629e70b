#pragma once

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/properties.hpp"
#include "util/rng.hpp"

namespace lptsp {

/// True iff some four vertices induce a path a-b-c-d (the forbidden
/// subgraph of cographs): a brute-force oracle that shares no code with
/// the cotree build. O(n^4); for small n only.
inline bool has_induced_p4(const Graph& graph) {
  const int n = graph.n();
  for (int b = 0; b < n; ++b) {
    for (int c = 0; c < n; ++c) {
      if (b == c || !graph.has_edge(b, c)) continue;
      for (int a = 0; a < n; ++a) {
        if (a == b || a == c || !graph.has_edge(a, b) || graph.has_edge(a, c)) continue;
        for (int d = 0; d < n; ++d) {
          if (d == a || d == b || d == c) continue;
          if (graph.has_edge(c, d) && !graph.has_edge(b, d) && !graph.has_edge(a, d)) return true;
        }
      }
    }
  }
  return false;
}

/// A random connected cograph on n vertices (random_cograph, redrawn until
/// connected).
inline Graph connected_cograph(int n, Rng& rng) {
  Graph graph;
  do {
    graph = random_cograph(n, rng);
  } while (!is_connected(graph));
  return graph;
}

}  // namespace lptsp
