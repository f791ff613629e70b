#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <vector>

#include "core/labeling.hpp"
#include "core/solvers.hpp"
#include "graph/generators.hpp"
#include "graph/operations.hpp"
#include "graph/properties.hpp"
#include "service/batch_solver.hpp"
#include "util/rng.hpp"

#include "cograph_testing.hpp"

namespace lptsp {
namespace {

BatchSolver::Options fast_options() {
  BatchSolver::Options options;
  options.request_workers = 4;
  options.engine_workers = 4;
  options.portfolio.deadline = std::chrono::milliseconds{0};
  return options;
}

TEST(BatchSolver, BatchOfIsomorphicRequestsSolvesOnce) {
  BatchSolver solver(fast_options());
  Rng rng(41);
  const Graph base = random_with_diameter_at_most(18, 2, 0.3, rng);
  constexpr int kRequests = 12;
  std::vector<SolveRequest> requests;
  for (int i = 0; i < kRequests; ++i) {
    SolveRequest request;
    request.graph = relabel(base, rng.permutation(base.n()));
    request.p = PVec::L21();
    request.id = static_cast<std::uint64_t>(i);
    requests.push_back(std::move(request));
  }

  const std::vector<SolveResponse> responses = solver.solve_batch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  EXPECT_EQ(solver.engine_solves(), 1u);  // N isomorphic requests -> 1 solve

  int solved = 0;
  for (int i = 0; i < kRequests; ++i) {
    const SolveResponse& response = responses[static_cast<std::size_t>(i)];
    ASSERT_TRUE(response.ok()) << response.message;
    EXPECT_EQ(response.id, static_cast<std::uint64_t>(i));
    EXPECT_EQ(response.span, responses[0].span);
    // Each response must be valid on ITS OWN graph (vertex numbering
    // differs per request even though the instances are isomorphic).
    EXPECT_TRUE(is_valid_labeling(requests[static_cast<std::size_t>(i)].graph, PVec::L21(),
                                  response.labeling));
    if (response.source == ResponseSource::Solved) ++solved;
  }
  EXPECT_EQ(solved, 1);
}

TEST(BatchSolver, SecondBatchIsServedFromCache) {
  BatchSolver solver(fast_options());
  Rng rng(43);
  const Graph base = random_with_diameter_at_most(15, 2, 0.3, rng);
  std::vector<SolveRequest> requests;
  for (int i = 0; i < 4; ++i) {
    SolveRequest request;
    request.graph = relabel(base, rng.permutation(base.n()));
    requests.push_back(std::move(request));
  }
  (void)solver.solve_batch(requests);
  EXPECT_EQ(solver.engine_solves(), 1u);

  const std::vector<SolveResponse> again = solver.solve_batch(requests);
  EXPECT_EQ(solver.engine_solves(), 1u);  // nothing new to solve
  for (const SolveResponse& response : again) {
    EXPECT_TRUE(response.ok());
    EXPECT_EQ(response.source, ResponseSource::ResultCache);
  }
}

TEST(BatchSolver, BadRequestsGetTypedStatusesNotExceptions) {
  BatchSolver solver(fast_options());
  Rng rng(47);

  Graph disconnected(6);
  disconnected.add_edge(0, 1);
  disconnected.add_edge(2, 3);
  disconnected.add_edge(4, 5);

  std::vector<SolveRequest> requests(4);
  requests[0].graph = disconnected;
  requests[1].graph = path_graph(6);  // diameter 5 > k = 2
  requests[2].graph = star_graph(5);
  requests[2].p = PVec({3, 1});  // pmax > 2*pmin
  requests[3].graph = random_with_diameter_at_most(10, 2, 0.3, rng);  // the good one

  const std::vector<SolveResponse> responses = solver.solve_batch(requests);
  EXPECT_EQ(responses[0].status, SolveStatus::Disconnected);
  EXPECT_EQ(responses[1].status, SolveStatus::DiameterExceedsK);
  EXPECT_EQ(responses[2].status, SolveStatus::MetricConditionViolated);
  EXPECT_TRUE(responses[3].ok()) << responses[3].message;
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(responses[static_cast<std::size_t>(i)].message.empty());
  }

  SolveRequest empty;
  EXPECT_EQ(solver.solve_one(empty).status, SolveStatus::EmptyGraph);
}

TEST(BatchSolver, PinnedEngineIsHonoredAndNotCoalescedAcrossEngines) {
  BatchSolver solver(fast_options());
  Rng rng(53);
  const Graph graph = random_with_diameter_at_most(12, 2, 0.3, rng);

  std::vector<SolveRequest> requests(2);
  requests[0].graph = graph;
  requests[0].engine = Engine::HeldKarp;
  requests[1].graph = graph;
  requests[1].engine = Engine::ChainedLK;

  const std::vector<SolveResponse> responses = solver.solve_batch(requests);
  ASSERT_TRUE(responses[0].ok());
  ASSERT_TRUE(responses[1].ok());
  EXPECT_EQ(responses[0].engine, Engine::HeldKarp);
  EXPECT_TRUE(responses[0].optimal);
  EXPECT_EQ(responses[1].engine, Engine::ChainedLK);
  EXPECT_EQ(solver.engine_solves(), 2u);  // different engines never share a solve
  EXPECT_GE(responses[1].span, responses[0].span);
}

TEST(BatchSolver, ReductionCacheServesNewPVectorsWithoutNewBfs) {
  BatchSolver solver(fast_options());
  Rng rng(59);
  const Graph graph = random_with_diameter_at_most(14, 2, 0.35, rng);

  SolveRequest first;
  first.graph = graph;
  first.p = PVec::L21();
  ASSERT_TRUE(solver.solve_one(first).ok());

  // Same interference graph, different constraint vector: frequency
  // assignment re-querying under many p — the reduction (distance matrix)
  // is reused, only the matrix fill and engine run.
  SolveRequest second;
  second.graph = graph;
  second.p = PVec({2, 2});
  const SolveResponse response = solver.solve_one(second);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response.reduction_cached);
  EXPECT_EQ(response.source, ResponseSource::Solved);
  EXPECT_TRUE(is_valid_labeling(graph, PVec({2, 2}), response.labeling));
}

TEST(BatchSolver, AsyncSubmitCoalescesAndVerifies) {
  BatchSolver solver(fast_options());
  Rng rng(61);
  const Graph base = random_with_diameter_at_most(16, 2, 0.3, rng);
  constexpr int kRequests = 8;
  std::vector<SolveRequest> requests;
  std::vector<std::future<SolveResponse>> futures;
  for (int i = 0; i < kRequests; ++i) {
    SolveRequest request;
    request.graph = relabel(base, rng.permutation(base.n()));
    request.id = static_cast<std::uint64_t>(i);
    requests.push_back(request);
    futures.push_back(solver.submit(std::move(request)));
  }
  Weight span = -1;
  for (int i = 0; i < kRequests; ++i) {
    const SolveResponse response = futures[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(response.ok()) << response.message;
    if (span < 0) span = response.span;
    EXPECT_EQ(response.span, span);
    EXPECT_TRUE(is_valid_labeling(requests[static_cast<std::size_t>(i)].graph, PVec::L21(),
                                  response.labeling));
  }
  // Exact solve counts depend on scheduling (a follower can slip between a
  // leader finishing and the cache publish), but coalescing + cache must
  // have removed work relative to the request count.
  EXPECT_LT(solver.engine_solves(), static_cast<std::uint64_t>(kRequests));
}

TEST(BatchSolver, TruncatedResultsAreUpgradedByLargerBudgets) {
  // fast_options has an unlimited service default, so the second request
  // brings strictly more budget than the first's 1ms race. The B&B node
  // cap is kept small so the unlimited race stays test-sized.
  BatchSolver::Options options = fast_options();
  options.portfolio.bb_node_limit = 200'000;
  BatchSolver solver(options);
  Rng rng(73);
  const Graph graph = random_with_diameter_at_most(60, 2, 0.15, rng);

  SolveRequest rushed;
  rushed.graph = graph;
  rushed.deadline = std::chrono::milliseconds{1};
  const SolveResponse first = solver.solve_one(rushed);
  ASSERT_TRUE(first.ok()) << first.message;

  SolveRequest patient;
  patient.graph = graph;  // deadline 0 -> unlimited service default
  const SolveResponse second = solver.solve_one(patient);
  ASSERT_TRUE(second.ok()) << second.message;
  if (!first.optimal) {
    // The cached truncated result must not be served to the bigger budget.
    EXPECT_EQ(second.source, ResponseSource::Solved);
    EXPECT_EQ(solver.engine_solves(), 2u);
  }
  EXPECT_LE(second.span, first.span);
  EXPECT_TRUE(is_valid_labeling(graph, patient.p, second.labeling));

  // A third rushed request is served the refreshed entry: produced under
  // an unlimited budget, it is never upgradeable again.
  const SolveResponse third = solver.solve_one(rushed);
  EXPECT_EQ(third.source, ResponseSource::ResultCache);
  EXPECT_EQ(third.span, second.span);
}

TEST(BatchSolver, CacheDisabledSolvesEveryRequest) {
  BatchSolver::Options options = fast_options();
  options.use_cache = false;
  BatchSolver solver(options);
  Rng rng(67);
  const Graph graph = random_with_diameter_at_most(12, 2, 0.3, rng);
  SolveRequest request;
  request.graph = graph;
  ASSERT_TRUE(solver.solve_one(request).ok());
  ASSERT_TRUE(solver.solve_one(request).ok());
  EXPECT_EQ(solver.engine_solves(), 2u);
}

TEST(BatchSolver, PriorityBatchesStillAnswerEveryone) {
  BatchSolver solver(fast_options());
  Rng rng(71);
  std::vector<SolveRequest> requests;
  for (int i = 0; i < 6; ++i) {
    SolveRequest request;
    request.graph = random_with_diameter_at_most(10 + i, 2, 0.3, rng);
    request.priority = i % 3;
    request.deadline = std::chrono::milliseconds{200};
    request.id = static_cast<std::uint64_t>(i);
    requests.push_back(std::move(request));
  }
  const std::vector<SolveResponse> responses = solver.solve_batch(requests);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok()) << responses[i].message;
    EXPECT_EQ(responses[i].id, requests[i].id);
    EXPECT_TRUE(is_valid_labeling(requests[i].graph, requests[i].p, responses[i].labeling));
  }
}

// --- The structural tier (step 0): connected cographs -----------------

std::uint64_t histogram_count(BatchSolver& solver, const std::string& name) {
  const obs::MetricsSnapshot snap = solver.metrics_registry().snapshot();
  const obs::HistogramSnapshot* histogram = snap.histogram(name);
  return histogram == nullptr ? 0 : histogram->count;
}

std::uint64_t counter(BatchSolver& solver, const std::string& name) {
  return solver.metrics_registry().snapshot().counter_or(name);
}

TEST(BatchSolver, UnpinnedCographIsAnsweredByTheCotreeTier) {
  BatchSolver::Options options = fast_options();
  options.portfolio.deadline = std::chrono::milliseconds{40};
  BatchSolver solver(options);
  Rng rng(61);
  const Graph graph = connected_cograph(12, rng);
  SolveRequest request;
  request.graph = graph;
  request.p = PVec::L21();
  SolveOptions held_karp;
  held_karp.engine = Engine::HeldKarp;
  const Weight optimum = solve_labeling(graph, PVec::L21(), held_karp).span;

  // Twice: the tier uses no cache, so the repeat is answered the same way.
  for (std::uint64_t id = 1; id <= 2; ++id) {
    request.id = id;
    const SolveResponse response = solver.solve_one(request);
    ASSERT_TRUE(response.ok()) << response.message;
    EXPECT_EQ(response.id, id);
    EXPECT_EQ(response.engine, Engine::Cotree);
    EXPECT_TRUE(response.optimal);
    EXPECT_EQ(response.source, ResponseSource::Solved);
    EXPECT_EQ(response.span, optimum);
    EXPECT_EQ(response.labeling.span(), response.span);
    EXPECT_TRUE(is_valid_labeling(graph, PVec::L21(), response.labeling));
  }
  EXPECT_EQ(solver.engine_solves(), 0u);
  EXPECT_EQ(solver.cache().size(), 0u);
  EXPECT_EQ(counter(solver, "races_skipped_structural"), 2u);
  EXPECT_EQ(histogram_count(solver, "structural_ns"), 2u);
  EXPECT_EQ(histogram_count(solver, "canonical_ns"), 0u);
  EXPECT_EQ(histogram_count(solver, "engine_race_ns"), 0u);
  // A deadline-bounded tier answer met its deadline, as a cache hit does.
  EXPECT_EQ(solver.slo().hits(), 2u);
  EXPECT_EQ(solver.slo().misses(), 0u);
}

TEST(BatchSolver, PinnedCographStillRaces) {
  BatchSolver solver(fast_options());
  Rng rng(62);
  SolveRequest request;
  request.graph = connected_cograph(12, rng);
  request.p = PVec::L21();
  request.engine = Engine::BranchBound;
  const SolveResponse response = solver.solve_one(request);
  ASSERT_TRUE(response.ok()) << response.message;
  EXPECT_EQ(response.engine, Engine::BranchBound);
  EXPECT_EQ(solver.engine_solves(), 1u);
  EXPECT_EQ(counter(solver, "races_skipped_structural"), 0u);
  EXPECT_EQ(histogram_count(solver, "canonical_ns"), 1u);
  EXPECT_EQ(histogram_count(solver, "structural_ns"), 0u);
}

TEST(BatchSolver, PinningCotreeAnswersCographsAndTypesEverythingElse) {
  BatchSolver solver(fast_options());
  Rng rng(63);
  SolveRequest request;
  request.p = PVec::L21();
  request.engine = Engine::Cotree;

  request.graph = connected_cograph(20, rng);
  const SolveResponse cograph = solver.solve_one(request);
  ASSERT_TRUE(cograph.ok()) << cograph.message;
  EXPECT_EQ(cograph.engine, Engine::Cotree);
  EXPECT_TRUE(cograph.optimal);

  // Declined by the tier: the pipeline classifies it, then types it as an
  // engine failure without running (or counting) an engine.
  request.graph = random_with_diameter_at_most(14, 2, 0.3, rng);
  const SolveResponse other = solver.solve_one(request);
  EXPECT_EQ(other.status, SolveStatus::EngineFailure);
  EXPECT_FALSE(other.message.empty());
  EXPECT_EQ(counter(solver, "races_skipped_structural"), 1u);
  EXPECT_EQ(solver.engine_solves(), 0u);

  // A disconnected graph pinned to Cotree still gets the pipeline's status.
  request.graph = disjoint_union(complete_graph(3), complete_graph(3));
  EXPECT_EQ(solver.solve_one(request).status, SolveStatus::Disconnected);
}

TEST(BatchSolver, TypedStatusesOfCographsStillComeFromThePipeline) {
  BatchSolver solver(fast_options());
  SolveRequest request;
  request.graph = disjoint_union(complete_graph(4), star_graph(4));
  request.p = PVec::L21();
  EXPECT_EQ(solver.solve_one(request).status, SolveStatus::Disconnected);

  request.graph = star_graph(6);
  request.p = PVec({3, 1});
  EXPECT_EQ(solver.solve_one(request).status, SolveStatus::MetricConditionViolated);

  request.graph = complete_bipartite(3, 4);
  request.p = PVec({2});
  EXPECT_EQ(solver.solve_one(request).status, SolveStatus::DiameterExceedsK);

  EXPECT_EQ(counter(solver, "races_skipped_structural"), 0u);
  EXPECT_EQ(solver.engine_solves(), 0u);
}

TEST(BatchSolver, BatchAnswersCographsInStageOneAndDedupesTheRest) {
  BatchSolver solver(fast_options());
  Rng rng(64);
  const Graph cograph = connected_cograph(16, rng);
  const Graph other = random_with_diameter_at_most(16, 2, 0.3, rng);
  std::vector<SolveRequest> requests;
  for (std::uint64_t id = 0; id < 8; ++id) {
    const Graph& base = id % 2 == 0 ? cograph : other;
    SolveRequest request;
    request.graph = relabel(base, rng.permutation(base.n()));
    request.p = PVec::L21();
    request.id = id;
    requests.push_back(std::move(request));
  }
  const std::vector<SolveResponse> responses = solver.solve_batch(requests);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok()) << responses[i].message;
    EXPECT_EQ(responses[i].id, requests[i].id);
    EXPECT_TRUE(is_valid_labeling(requests[i].graph, PVec::L21(), responses[i].labeling));
    if (i % 2 == 0) {
      EXPECT_EQ(responses[i].engine, Engine::Cotree);
      EXPECT_EQ(responses[i].source, ResponseSource::Solved);  // no grouping
      EXPECT_EQ(responses[i].span, responses[0].span);
    } else {
      EXPECT_NE(responses[i].engine, Engine::Cotree);
    }
  }
  EXPECT_EQ(solver.engine_solves(), 1u);  // the four ER relabelings share one solve
  EXPECT_EQ(counter(solver, "races_skipped_structural"), 4u);
  EXPECT_EQ(histogram_count(solver, "structural_ns"), 4u);
}

}  // namespace
}  // namespace lptsp
