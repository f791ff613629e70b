#pragma once

#include <vector>

#include "core/labeling.hpp"
#include "graph/graph.hpp"
#include "tsp/instance.hpp"

namespace lptsp {

/// A vertex-disjoint path cover, as explicit paths.
struct PathPartition {
  std::vector<std::vector<int>> paths;

  [[nodiscard]] int size() const noexcept { return static_cast<int>(paths.size()); }
};

/// True iff `partition` is a set of vertex-disjoint paths of `graph`
/// covering every vertex exactly once.
bool is_valid_path_partition(const Graph& graph, const PathPartition& partition);

/// Optimal PARTITION INTO PATHS with a witness, via the 0/1-weight
/// Held–Karp route (n <= 22): the optimal Hamiltonian order splits into
/// maximal runs of graph edges — exactly the paper's Figure-2 picture.
PathPartition path_partition_exact(const Graph& graph);

/// Greedy witness version (any n): grow paths from both endpoints.
PathPartition path_partition_greedy(const Graph& graph);

/// Available solvers for the Corollary-2 pipeline.
enum class PartitionSolver {
  Exact,     ///< Held–Karp 0/1 DP (n <= 22)
  Greedy,    ///< linear-time heuristic (upper bound on the span)
  CographDP, ///< exact cotree fold; requires the cheap graph to be a cograph
};

/// Result of the Corollary-2 computation for L(p,q) on diameter <= 2.
struct Diameter2Result {
  Weight span = 0;          ///< lambda_{p,q}(G) (exact solvers) or an upper bound
  int partition_size = 0;   ///< s = number of paths used
  bool used_complement = false;  ///< true when p > q (partition runs on the complement)
  Labeling labeling;        ///< witness labeling
};

/// Corollary 2: lambda_{p,q}(G) = (n-1)*min(p,q) + (max(p,q)-min(p,q))*(s*-1)
/// where s* is the minimum path partition of G (p <= q) or of the
/// complement (p > q). Requires a connected graph with diam(G) <= 2 and
/// max(p,q) <= 2*min(p,q) (the Theorem-2 condition Claim 1 relies on).
Diameter2Result lpq_span_diameter2(const Graph& graph, int p, int q,
                                   PartitionSolver solver = PartitionSolver::Exact);

}  // namespace lptsp
