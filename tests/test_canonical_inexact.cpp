#include <gtest/gtest.h>

#include <set>

#include "core/labeling.hpp"
#include "graph/generators.hpp"
#include "graph/operations.hpp"
#include "service/batch_solver.hpp"
#include "service/canonical_key.hpp"
#include "util/rng.hpp"

namespace lptsp {
namespace {

// The canonicalization fallback path: on pathologically symmetric graphs
// the individualization search exhausts its branch budget and reports
// exact = false. Such forms are valid relabelings of THIS graph but not
// cross-request invariants, so the service must bypass the solve cache
// entirely — and still return correct, verified results.

/// Cocktail-party graph K_{5x2} (complement of a perfect matching):
/// connected, diameter 2, and WL-indistinguishable — the class of all 10
/// vertices is not uniformly adjacent, so the cheap single-orbit pruning
/// cannot collapse it and a small budget exhausts immediately.
///
/// It is also a connected cograph, which an unpinned request has answered
/// by the structural tier before canonicalization ever runs. The service
/// tests below therefore pin Held-Karp (pinned requests skip the tier), so
/// every request still takes the inexact-canonical path under test.
Graph cocktail_party() { return complete_multipartite({2, 2, 2, 2, 2}); }

/// Many disjoint triangles: the ROADMAP's canonical example of classes
/// that are unions of several orbits (disconnected, so the service answer
/// is a typed status rather than a labeling).
Graph many_triangles(int triangles) {
  Graph graph(3 * triangles);
  for (int t = 0; t < triangles; ++t) {
    graph.add_edge(3 * t, 3 * t + 1);
    graph.add_edge(3 * t + 1, 3 * t + 2);
    graph.add_edge(3 * t + 2, 3 * t);
  }
  return graph;
}

TEST(CanonicalInexact, SymmetricFamiliesExhaustTinyBudgetsButStayValidRelabelings) {
  CanonicalFormOptions options;
  options.branch_budget = 2;
  for (const Graph& graph : {cocktail_party(), many_triangles(6)}) {
    const CanonicalForm form = canonical_form(graph, options);
    EXPECT_FALSE(form.exact);
    const std::set<int> seen(form.to_canonical.begin(), form.to_canonical.end());
    EXPECT_EQ(static_cast<int>(seen.size()), graph.n());
    EXPECT_EQ(relabel(graph, form.to_canonical).edges(), form.edges);
  }
}

TEST(CanonicalInexact, ServiceBypassesCacheAndStaysCorrect) {
  BatchSolver::Options options;
  options.canonical.branch_budget = 2;
  BatchSolver solver(options);

  const Graph graph = cocktail_party();
  SolveRequest request;
  request.graph = graph;
  request.p = PVec::L21();
  request.engine = Engine::HeldKarp;  // skip the structural tier (see cocktail_party)

  // Two identical requests: with an exact form the second would be a
  // result-cache hit; inexact forms must solve fresh both times.
  request.id = 1;
  const SolveResponse first = solver.solve_one(request);
  request.id = 2;
  const SolveResponse second = solver.solve_one(request);

  for (const SolveResponse* response : {&first, &second}) {
    ASSERT_TRUE(response->ok()) << response->message;
    EXPECT_EQ(response->source, ResponseSource::Solved);
    EXPECT_FALSE(response->reduction_cached);
    EXPECT_TRUE(is_valid_labeling(graph, PVec::L21(), response->labeling));
    EXPECT_EQ(response->labeling.span(), response->span);
    // n = 10: Held-Karp certifies the optimum, so both fresh solves must
    // agree on the span even though their inexact relabelings differ.
    EXPECT_TRUE(response->optimal);
  }
  EXPECT_EQ(first.span, second.span);
  EXPECT_EQ(solver.engine_solves(), 2u);  // no dedupe, no cache
  EXPECT_EQ(solver.cache().size(), 0u);   // nothing was allowed in
  const CacheStats stats = solver.cache().stats();
  EXPECT_EQ(stats.result_hits, 0u);
  EXPECT_EQ(stats.insertions, 0u);

  // A relabeled copy is the same instance; without a canonical identity
  // it must also solve fresh — and to the same optimal span.
  Rng rng(17);
  request.id = 3;
  request.graph = relabel(graph, rng.permutation(graph.n()));
  const SolveResponse relabeled = solver.solve_one(request);
  ASSERT_TRUE(relabeled.ok());
  EXPECT_EQ(relabeled.span, first.span);
  EXPECT_EQ(solver.engine_solves(), 3u);
}

TEST(CanonicalInexact, BatchDedupeIsDisabledForInexactForms) {
  BatchSolver::Options options;
  options.canonical.branch_budget = 2;
  BatchSolver solver(options);

  Rng rng(19);
  const Graph graph = cocktail_party();
  std::vector<SolveRequest> requests;
  for (std::uint64_t id = 0; id < 4; ++id) {
    SolveRequest request;
    request.graph = id == 0 ? graph : relabel(graph, rng.permutation(graph.n()));
    request.p = PVec::L21();
    request.engine = Engine::HeldKarp;  // skip the structural tier (see cocktail_party)
    request.id = id;
    requests.push_back(std::move(request));
  }
  const std::vector<SolveResponse> responses = solver.solve_batch(requests);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok()) << responses[i].message;
    EXPECT_TRUE(is_valid_labeling(requests[i].graph, PVec::L21(), responses[i].labeling));
    EXPECT_EQ(responses[i].span, responses[0].span);
    EXPECT_EQ(responses[i].source, ResponseSource::Solved);  // nobody coalesced
  }
  EXPECT_EQ(solver.engine_solves(), 4u);
}

TEST(CanonicalInexact, DisconnectedSymmetricGraphsGetTypedStatusWithoutCachePollution) {
  BatchSolver::Options options;
  options.canonical.branch_budget = 2;
  BatchSolver solver(options);

  SolveRequest request;
  request.graph = many_triangles(6);
  request.p = PVec::L21();
  request.id = 1;
  const SolveResponse first = solver.solve_one(request);
  request.id = 2;
  const SolveResponse second = solver.solve_one(request);
  for (const SolveResponse* response : {&first, &second}) {
    EXPECT_EQ(response->status, SolveStatus::Disconnected);
    EXPECT_FALSE(response->message.empty());
  }
  EXPECT_EQ(solver.engine_solves(), 0u);
  EXPECT_EQ(solver.cache().size(), 0u);
}

}  // namespace
}  // namespace lptsp
