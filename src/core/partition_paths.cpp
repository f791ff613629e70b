#include "core/partition_paths.hpp"

#include <algorithm>

#include "core/cograph_paths.hpp"
#include "core/order_labeling.hpp"
#include "core/reduction.hpp"
#include "graph/operations.hpp"
#include "graph/properties.hpp"
#include "tsp/held_karp.hpp"
#include "util/check.hpp"

namespace lptsp {

bool is_valid_path_partition(const Graph& graph, const PathPartition& partition) {
  std::vector<bool> covered(static_cast<std::size_t>(graph.n()), false);
  int total = 0;
  for (const auto& path : partition.paths) {
    if (path.empty()) return false;
    for (std::size_t i = 0; i < path.size(); ++i) {
      const int v = path[i];
      if (v < 0 || v >= graph.n() || covered[static_cast<std::size_t>(v)]) return false;
      covered[static_cast<std::size_t>(v)] = true;
      ++total;
      if (i > 0 && !graph.has_edge(path[i - 1], v)) return false;
    }
  }
  return total == graph.n();
}

namespace {

/// Split a Hamiltonian order into maximal runs of graph edges (Fig. 2).
PathPartition split_order_into_paths(const Graph& graph, const std::vector<int>& order) {
  PathPartition partition;
  std::vector<int> current;
  for (const int v : order) {
    if (!current.empty() && !graph.has_edge(current.back(), v)) {
      partition.paths.push_back(std::move(current));
      current = {};
    }
    current.push_back(v);
  }
  if (!current.empty()) partition.paths.push_back(std::move(current));
  return partition;
}

}  // namespace

PathPartition path_partition_exact(const Graph& graph) {
  LPTSP_REQUIRE(graph.n() >= 1, "graph must be non-empty");
  if (graph.n() == 1) return {{{0}}};
  MetricInstance instance(graph.n());
  for (int u = 0; u < graph.n(); ++u) {
    for (int v = u + 1; v < graph.n(); ++v) {
      instance.set_weight(u, v, graph.has_edge(u, v) ? 0 : 1);
    }
  }
  const PathSolution solution = held_karp_path(instance);
  PathPartition partition = split_order_into_paths(graph, solution.order);
  LPTSP_ENSURE(partition.size() == static_cast<int>(solution.cost) + 1,
               "path count must equal heavy-edge count + 1");
  LPTSP_ENSURE(is_valid_path_partition(graph, partition), "exact partition is invalid");
  return partition;
}

PathPartition path_partition_greedy(const Graph& graph) {
  LPTSP_REQUIRE(graph.n() >= 1, "graph must be non-empty");
  std::vector<bool> used(static_cast<std::size_t>(graph.n()), false);
  PathPartition partition;
  for (int start = 0; start < graph.n(); ++start) {
    if (used[static_cast<std::size_t>(start)]) continue;
    std::vector<int> path{start};
    used[static_cast<std::size_t>(start)] = true;
    bool grew = true;
    while (grew) {
      grew = false;
      for (const int v : graph.neighbors(path.back())) {
        if (!used[static_cast<std::size_t>(v)]) {
          used[static_cast<std::size_t>(v)] = true;
          path.push_back(v);
          grew = true;
          break;
        }
      }
      for (const int v : graph.neighbors(path.front())) {
        if (!used[static_cast<std::size_t>(v)]) {
          used[static_cast<std::size_t>(v)] = true;
          path.insert(path.begin(), v);
          grew = true;
          break;
        }
      }
    }
    partition.paths.push_back(std::move(path));
  }
  LPTSP_ENSURE(is_valid_path_partition(graph, partition), "greedy partition is invalid");
  return partition;
}

Diameter2Result lpq_span_diameter2(const Graph& graph, int p, int q, PartitionSolver solver) {
  const int n = graph.n();
  LPTSP_REQUIRE(n >= 1, "graph must be non-empty");
  LPTSP_REQUIRE(p >= 0 && q >= 0, "p and q must be non-negative");
  // Corollary 2 inherits Theorem 2's Claim-1 machinery, which needs the
  // bounded-weight condition max(p,q) <= 2*min(p,q).
  LPTSP_REQUIRE(std::max(p, q) <= 2 * std::min(p, q),
                "Corollary 2 requires max(p,q) <= 2*min(p,q)");
  LPTSP_REQUIRE(is_connected(graph), "Corollary 2 requires a connected graph");
  LPTSP_REQUIRE(n == 1 || diameter(graph) <= 2, "Corollary 2 requires diam(G) <= 2");

  Diameter2Result result;
  if (n == 1) {
    result.partition_size = 1;
    result.labeling.labels = {0};
    return result;
  }

  const Weight cheap = std::min(p, q);
  const Weight heavy = std::max(p, q);
  result.used_complement = p > q;

  PathPartition witness;
  if (solver == PartitionSolver::CographDP) {
    // The complement's cotree is G's with join and union swapped, so the
    // cover of either side comes from G's own cotree.
    const auto tree = build_cotree(graph);
    LPTSP_REQUIRE(tree.has_value(), "graph is not a cograph");
    witness = cotree_path_cover(*tree, result.used_complement);
  } else {
    const Graph cheap_graph = result.used_complement ? complement(graph) : graph;
    witness = solver == PartitionSolver::Exact ? path_partition_exact(cheap_graph)
                                               : path_partition_greedy(cheap_graph);
  }
  result.partition_size = witness.size();
  result.span = static_cast<Weight>(n - 1) * cheap +
                (heavy - cheap) * static_cast<Weight>(result.partition_size - 1);

  // Build the witness labeling by concatenating the paths: cheap steps
  // inside a path, heavy steps between paths (this is exactly the
  // lambda_p(G, pi) of the concatenated order).
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  for (const auto& path : witness.paths) order.insert(order.end(), path.begin(), path.end());
  const DistanceMatrix dist = all_pairs_distances(graph);
  const PVec pv({p, q});
  result.labeling = minimal_labeling_for_order(dist, pv, order);
  LPTSP_ENSURE(is_valid_labeling(graph, dist, pv, result.labeling),
               "Corollary-2 witness labeling invalid");
  LPTSP_ENSURE(result.labeling.span() <= result.span,
               "witness span exceeds the Corollary-2 value");
  return result;
}

}  // namespace lptsp
