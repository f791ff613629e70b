#include <gtest/gtest.h>

#include "core/cograph_paths.hpp"
#include "graph/generators.hpp"
#include "graph/operations.hpp"
#include "graph/properties.hpp"
#include "params/cotree.hpp"
#include "params/modular_decomposition.hpp"
#include "params/neighborhood_diversity.hpp"
#include "util/rng.hpp"

#include "cograph_testing.hpp"

namespace lptsp {
namespace {

TEST(NeighborhoodDiversity, KnownValues) {
  EXPECT_EQ(neighborhood_diversity(complete_graph(6)), 1);   // all true twins
  EXPECT_EQ(neighborhood_diversity(Graph(6)), 1);            // all false twins
  EXPECT_EQ(neighborhood_diversity(star_graph(6)), 2);       // hub + leaves
  EXPECT_EQ(neighborhood_diversity(complete_bipartite(3, 4)), 2);
  EXPECT_EQ(neighborhood_diversity(path_graph(4)), 4);       // P4 has no twins
}

TEST(NeighborhoodDiversity, ClassesAreModulesAndHomogeneous) {
  Rng rng(5);
  const Graph graph = erdos_renyi(18, 0.35, rng);
  const NdPartition partition = neighborhood_diversity_partition(graph);
  int covered = 0;
  for (std::size_t c = 0; c < partition.classes.size(); ++c) {
    covered += static_cast<int>(partition.classes[c].size());
    EXPECT_TRUE(is_module(graph, partition.classes[c]));
    for (const int v : partition.classes[c]) {
      EXPECT_EQ(partition.class_of[static_cast<std::size_t>(v)], static_cast<int>(c));
    }
  }
  EXPECT_EQ(covered, graph.n());
}

TEST(NeighborhoodDiversity, CompleteMultipartiteClassCount) {
  const Graph graph = complete_multipartite({3, 3, 2});
  EXPECT_EQ(neighborhood_diversity(graph), 3);
}

TEST(ModuleClosure, GrowsToSmallestModule) {
  // In P4 = 0-1-2-3, the closure of {0,1} must absorb everything.
  const Graph p4 = path_graph(4);
  EXPECT_EQ(module_closure(p4, {0, 1}).size(), 4u);
  // In a star, two leaves already form a module.
  const Graph star = star_graph(5);
  const auto closure = module_closure(star, {1, 2});
  EXPECT_EQ(closure.size(), 2u);
  EXPECT_TRUE(is_module(star, closure));
}

TEST(ModularDecomposition, LeafForSingleton) {
  const MDTree tree = modular_decomposition(Graph(1));
  EXPECT_EQ(tree.node(tree.root).kind, MDNode::Kind::Leaf);
}

TEST(ModularDecomposition, SeriesForComplete) {
  const MDTree tree = modular_decomposition(complete_graph(4));
  EXPECT_EQ(tree.node(tree.root).kind, MDNode::Kind::Series);
  EXPECT_EQ(tree.node(tree.root).children.size(), 4u);
}

TEST(ModularDecomposition, ParallelForEmpty) {
  const MDTree tree = modular_decomposition(Graph(4));
  EXPECT_EQ(tree.node(tree.root).kind, MDNode::Kind::Parallel);
}

TEST(ModularDecomposition, PrimeForP4) {
  const MDTree tree = modular_decomposition(path_graph(4));
  EXPECT_EQ(tree.node(tree.root).kind, MDNode::Kind::Prime);
  EXPECT_EQ(tree.node(tree.root).children.size(), 4u);
}

TEST(ModularDecomposition, RootCoversAllVertices) {
  Rng rng(9);
  const Graph graph = erdos_renyi(14, 0.3, rng);
  const MDTree tree = modular_decomposition(graph);
  EXPECT_EQ(tree.node(tree.root).vertices.size(), 14u);
}

TEST(ModularDecomposition, ChildrenPartitionParent) {
  Rng rng(13);
  const Graph graph = erdos_renyi(12, 0.4, rng);
  const MDTree tree = modular_decomposition(graph);
  for (const auto& node : tree.nodes) {
    if (node.kind == MDNode::Kind::Leaf) continue;
    std::size_t total = 0;
    for (const int child : node.children) total += tree.node(child).vertices.size();
    EXPECT_EQ(total, node.vertices.size());
  }
}

TEST(ModularDecomposition, NonLeafChildrenAreModules) {
  Rng rng(17);
  const Graph graph = erdos_renyi(12, 0.35, rng);
  const MDTree tree = modular_decomposition(graph);
  for (const auto& node : tree.nodes) {
    if (node.vertices.size() >= 2) {
      EXPECT_TRUE(is_module(graph, node.vertices) ||
                  node.vertices.size() == static_cast<std::size_t>(graph.n()));
    }
  }
}

TEST(ModularWidth, KnownValues) {
  EXPECT_EQ(modular_width(path_graph(4)), 4);       // P4 itself is prime
  EXPECT_EQ(modular_width(cycle_graph(5)), 5);      // C5 is prime
  EXPECT_EQ(modular_width(complete_graph(8)), 2);   // cograph
  EXPECT_EQ(modular_width(star_graph(8)), 2);       // cograph
  EXPECT_EQ(modular_width(complete_bipartite(3, 5)), 2);
}

TEST(ModularWidth, CographsHaveWidthTwo) {
  Rng rng(21);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph graph = random_cograph(15, rng);
    EXPECT_LE(modular_width(graph), 2);
  }
}

class PropositionSweep : public ::testing::TestWithParam<int> {
 protected:
  Rng rng_{static_cast<std::uint64_t>(GetParam() * 1009 + 5)};
};

TEST_P(PropositionSweep, Prop1ModularWidthOfComplement) {
  const Graph graph = erdos_renyi(11, 0.2 + 0.05 * (GetParam() % 7), rng_);
  EXPECT_EQ(modular_width(graph), modular_width(complement(graph)));
}

TEST_P(PropositionSweep, Prop2NdOfSquareAtMostModularWidth) {
  const Graph graph = random_connected(11, 0.15 + 0.05 * (GetParam() % 5), rng_);
  EXPECT_LE(neighborhood_diversity(power(graph, 2)), std::max(modular_width(graph), 1));
}

TEST_P(PropositionSweep, NdOfPowersNeverIncreases) {
  // nd(G) >= nd(G^k) (Fiala et al., used in Theorem 4's proof).
  const Graph graph = random_connected(11, 0.25, rng_);
  const int nd_of_g = neighborhood_diversity(graph);
  for (int k = 1; k <= 4; ++k) {
    EXPECT_LE(neighborhood_diversity(power(graph, k)), nd_of_g);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropositionSweep, ::testing::Range(0, 10));

TEST(Cotree, RecognizesCographs) {
  EXPECT_TRUE(is_cograph(complete_graph(5)));
  EXPECT_TRUE(is_cograph(Graph(5)));
  EXPECT_TRUE(is_cograph(star_graph(5)));
  EXPECT_TRUE(is_cograph(complete_bipartite(2, 3)));
}

TEST(Cotree, RejectsP4AndCycles) {
  EXPECT_FALSE(is_cograph(path_graph(4)));
  EXPECT_FALSE(is_cograph(cycle_graph(5)));
  EXPECT_FALSE(is_cograph(petersen_graph()));
}

TEST(Cotree, AcceptsExactlyTheP4FreeGraphsOnSixOrFewerVertices) {
  int cographs = 0;
  for (int n = 1; n <= 6; ++n) {
    const std::uint64_t masks = std::uint64_t{1} << (n * (n - 1) / 2);
    for (std::uint64_t mask = 0; mask < masks; ++mask) {
      const Graph graph = graph_from_edge_mask(n, mask);
      const bool cograph = !has_induced_p4(graph);
      cographs += cograph ? 1 : 0;
      ASSERT_EQ(build_cotree(graph).has_value(), cograph) << "n=" << n << " mask=" << mask;
      // The structural tier answers exactly the connected cographs on two
      // or more vertices.
      ASSERT_EQ(cograph_optimal_labeling(graph, PVec::L21()).has_value(),
                cograph && n >= 2 && is_connected(graph))
          << "n=" << n << " mask=" << mask;
    }
  }
  EXPECT_GT(cographs, 0);
}

TEST(Cotree, RootCoversAllAndChildrenPartition) {
  Rng rng(31);
  const Graph graph = random_cograph(16, rng);
  const auto tree = build_cotree(graph);
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(tree->node(tree->root).vertices.size(), 16u);
  for (const auto& node : tree->nodes) {
    if (node.is_leaf) continue;
    std::size_t total = 0;
    for (const int child : node.children) total += tree->node(child).vertices.size();
    EXPECT_EQ(total, node.vertices.size());
    EXPECT_GE(node.children.size(), 2u);
  }
}

}  // namespace
}  // namespace lptsp
