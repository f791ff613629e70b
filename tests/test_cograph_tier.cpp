#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/cograph_paths.hpp"
#include "core/labeling.hpp"
#include "core/reduction.hpp"
#include "graph/generators.hpp"
#include "graph/operations.hpp"
#include "graph/properties.hpp"
#include "ham/gadgets.hpp"
#include "tsp/held_karp.hpp"
#include "util/rng.hpp"

#include "cograph_testing.hpp"

namespace lptsp {
namespace {

// The Corollary-2 structural tier (cograph_optimal_labeling) and the
// constructive cotree cover behind it, checked against oracles that share
// no code with them: the counting recurrence, Held–Karp on the Theorem-2
// reduction, and a brute-force induced-P4 search.

/// The counting form of the cotree recurrence (paths, vertices) per node,
/// kept here as the oracle for the constructive cover's size.
std::pair<int, int> counting_fold(const Cotree& tree, int id) {
  const Cotree::Node& node = tree.node(id);
  if (node.is_leaf) return {1, 1};
  std::pair<int, int> acc{0, 0};
  for (const int child : node.children) {
    const auto [paths, vertices] = counting_fold(tree, child);
    if (acc.second == 0) {
      acc = {paths, vertices};
      continue;
    }
    acc.first = node.is_series ? std::max({1, acc.first - vertices, paths - acc.second})
                               : acc.first + paths;
    acc.second += vertices;
  }
  return acc;
}

/// Every connected cograph on n vertices, one per isomorphism class, for
/// n = 1..max_n: a connected cograph on n >= 2 vertices is the join of a
/// multiset of >= 2 co-connected cographs (K1 or the complement of a
/// connected cograph), and distinct multisets give distinct cotrees.
std::vector<std::vector<Graph>> all_connected_cographs(int max_n) {
  std::vector<std::vector<Graph>> connected(static_cast<std::size_t>(max_n) + 1);
  std::vector<std::vector<Graph>> co_connected(static_cast<std::size_t>(max_n) + 1);
  connected[1] = {Graph(1)};
  co_connected[1] = {Graph(1)};
  for (int n = 2; n <= max_n; ++n) {
    // Pieces in non-increasing (size, index) order, so each multiset is
    // generated once; a single piece of size n is excluded (>= 2 pieces).
    std::vector<Graph>& out = connected[static_cast<std::size_t>(n)];
    const auto extend = [&](const auto& self, const Graph& so_far, int left, int max_size,
                            std::size_t max_index) -> void {
      if (left == 0) {
        out.push_back(so_far);
        return;
      }
      for (int size = std::min(left, max_size); size >= 1; --size) {
        const auto& pieces = co_connected[static_cast<std::size_t>(size)];
        const std::size_t top = size == max_size ? max_index : pieces.size() - 1;
        for (std::size_t i = 0; i <= top && i < pieces.size(); ++i) {
          self(self, so_far.n() == 0 ? pieces[i] : join(so_far, pieces[i]), left - size, size, i);
        }
      }
    };
    extend(extend, Graph(0), n, n - 1, co_connected[static_cast<std::size_t>(n - 1)].size());
    for (const Graph& graph : out) {
      co_connected[static_cast<std::size_t>(n)].push_back(complement(graph));
    }
  }
  return connected;
}

Weight held_karp_span(const Graph& graph, const PVec& p) {
  return held_karp_path(reduce_to_path_tsp(graph, p, 1).instance).cost;
}

TEST(CographTier, ConstructiveCoverIsAValidMinimumPartitionOnBothSides) {
  Rng rng(2024);
  for (const int n : {2, 5, 13, 40, 60, 120, 240}) {
    for (int trial = 0; trial < 6; ++trial) {
      const Graph graph = random_cograph(n, rng);
      const Graph co = complement(graph);
      const auto tree = build_cotree(graph);
      const auto co_tree = build_cotree(co);
      ASSERT_TRUE(tree.has_value() && co_tree.has_value());

      const PathPartition cover = cotree_path_cover(*tree);
      EXPECT_TRUE(is_valid_path_partition(graph, cover)) << "n=" << n;
      EXPECT_EQ(cover.size(), counting_fold(*tree, tree->root).first) << "n=" << n;
      EXPECT_EQ(cotree_min_path_cover(*tree), cover.size());

      // The complement's cover comes from G's own cotree, join and union
      // swapped, and must match a fold over the complement's cotree.
      const PathPartition co_cover = cotree_path_cover(*tree, /*complement=*/true);
      EXPECT_TRUE(is_valid_path_partition(co, co_cover)) << "n=" << n;
      EXPECT_EQ(co_cover.size(), counting_fold(*co_tree, co_tree->root).first) << "n=" << n;
    }
  }
}

TEST(CographTier, EnumerationMatchesTheKnownCounts) {
  // OEIS A000669: connected cographs (series-parallel networks) on n nodes.
  const std::vector<std::size_t> known = {0, 1, 1, 2, 5, 12, 33, 90, 261, 766, 2312};
  const auto all = all_connected_cographs(10);
  for (int n = 1; n <= 10; ++n) {
    EXPECT_EQ(all[static_cast<std::size_t>(n)].size(), known[static_cast<std::size_t>(n)]);
    for (const Graph& graph : all[static_cast<std::size_t>(n)]) {
      ASSERT_TRUE(is_connected(graph));
      ASSERT_FALSE(has_induced_p4(graph));
    }
  }
}

TEST(CographTier, SpansEqualHeldKarpOnSmallConnectedCographs) {
  const std::vector<PVec> vectors = {PVec({2, 1}), PVec({1, 2}), PVec({3, 2}), PVec({2, 2, 1}),
                                     PVec({1, 1})};
  // Every connected cograph up to n = 10 (3,482 graphs), then random ones
  // up to n = 12. (All 32,515 up to n = 12 also agree, in ~40 s.)
  std::vector<Graph> graphs;
  for (const auto& by_n : all_connected_cographs(10)) {
    for (const Graph& graph : by_n) {
      if (graph.n() >= 2) graphs.push_back(graph);
    }
  }
  Rng rng(7);
  for (const int n : {11, 12}) {
    for (int trial = 0; trial < 40; ++trial) graphs.push_back(connected_cograph(n, rng));
  }
  int checked = 0;
  for (const Graph& graph : graphs) {
    for (const PVec& p : vectors) {
      const std::optional<Labeling> labeling = cograph_optimal_labeling(graph, p);
      ASSERT_TRUE(labeling.has_value()) << "n=" << graph.n() << " p=" << p.to_string();
      EXPECT_TRUE(is_valid_labeling(graph, p, *labeling));
      EXPECT_EQ(labeling->span(), held_karp_span(graph, p))
          << "n=" << graph.n() << " m=" << graph.m() << " p=" << p.to_string();
      ++checked;
    }
  }
  EXPECT_EQ(checked, 5 * (3482 + 80));
}

TEST(CographTier, NoNonCographIsEverAnswered) {
  Rng rng(99);
  std::vector<Graph> graphs = {petersen_graph(), path_graph(4), cycle_graph(5), fig1_graph()};
  for (int trial = 0; trial < 30; ++trial) {
    graphs.push_back(random_with_diameter_at_most(12, 2, 0.3, rng));
    graphs.push_back(random_with_diameter_at_most(60, 2, 0.15, rng));
  }
  // Griggs–Yeh gadgets (Theorem 3) have a universal vertex, so their
  // complement is disconnected, as a connected cograph's is; over a graph
  // with an induced P4 the gadget keeps one, and the cotree build must
  // reject it below the root.
  for (const int n : {4, 6, 9}) graphs.push_back(griggs_yeh_gadget(path_graph(n)));
  for (const int n : {5, 8}) graphs.push_back(griggs_yeh_gadget(cycle_graph(n)));
  for (int trial = 0; trial < 20; ++trial) {
    graphs.push_back(griggs_yeh_gadget(random_with_diameter_at_most(10, 3, 0.3, rng)));
  }
  int join_shaped = 0;
  for (const Graph& graph : graphs) {
    if (!has_induced_p4(graph)) continue;  // a cograph by chance
    if (!is_connected(complement(graph))) ++join_shaped;
    for (const PVec& p : {PVec::L21(), PVec({1, 2}), PVec({2, 2, 1})}) {
      EXPECT_FALSE(cograph_optimal_labeling(graph, p).has_value())
          << "n=" << graph.n() << " m=" << graph.m();
    }
  }
  EXPECT_GE(join_shaped, 5);
}

TEST(CographTier, DeclinesWhatThePipelineMustClassify) {
  // Disconnected cograph, n < 2, the metric condition, and k = 1 on a
  // non-complete graph: each is the full pipeline's typed status to give.
  EXPECT_FALSE(cograph_optimal_labeling(disjoint_union(complete_graph(3), complete_graph(2)),
                                        PVec::L21())
                   .has_value());
  EXPECT_FALSE(cograph_optimal_labeling(Graph(1), PVec::L21()).has_value());
  EXPECT_FALSE(cograph_optimal_labeling(star_graph(6), PVec({3, 1})).has_value());
  EXPECT_FALSE(cograph_optimal_labeling(star_graph(6), PVec({2})).has_value());
  // k = 1 on a complete graph is in scope: every pair is adjacent.
  const auto clique = cograph_optimal_labeling(complete_graph(7), PVec({3}));
  ASSERT_TRUE(clique.has_value());
  EXPECT_EQ(clique->span(), 18);
}

TEST(CographTier, KnownSpans) {
  // Star K_{1,5}, L(2,1): the complement is K5 plus an isolated vertex,
  // covered by 2 paths, so 5*1 + 1*(2-1) = 6 = Delta + 1.
  EXPECT_EQ(cograph_optimal_labeling(star_graph(6), PVec::L21())->span(), 6);
  // K_n, L(2,1): 2(n-1).
  EXPECT_EQ(cograph_optimal_labeling(complete_graph(5), PVec::L21())->span(), 8);
  // K_{3,3}, L(1,2): G is Hamiltonian-path, so (n-1)*1 = 5.
  EXPECT_EQ(cograph_optimal_labeling(complete_bipartite(3, 3), PVec({1, 2}))->span(), 5);
}

}  // namespace
}  // namespace lptsp
