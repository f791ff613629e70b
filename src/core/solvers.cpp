#include "core/solvers.hpp"

#include <utility>

#include "core/order_labeling.hpp"
#include "core/reduction.hpp"
#include "tsp/brute_force.hpp"
#include "tsp/branch_bound.hpp"
#include "tsp/christofides.hpp"
#include "tsp/construct.hpp"
#include "tsp/lin_kernighan.hpp"
#include "tsp/local_search.hpp"
#include "tsp/simulated_annealing.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace lptsp {

std::string engine_name(Engine engine) { return engine_name_cstr(engine); }

namespace {

PathSolution run_engine(const MetricInstance& instance, const SolveOptions& options,
                        bool& optimal) {
  Rng rng(options.seed);
  switch (options.engine) {
    case Engine::BruteForce:
      optimal = true;
      return brute_force_path(instance);
    case Engine::HeldKarp: {
      optimal = true;
      HeldKarpOptions hk = options.held_karp;
      if (hk.threads == 1 && options.threads != 1) hk.threads = options.threads;
      return held_karp_path(instance, hk);
    }
    case Engine::Christofides:
      return christofides_path(instance).solution;
    case Engine::DoubleMst:
      return double_mst_path(instance);
    case Engine::NearestNeighbor:
      return best_nearest_neighbor_path(instance, options.nn_starts, rng);
    case Engine::NearestNeighbor2Opt: {
      PathSolution solution = best_nearest_neighbor_path(instance, options.nn_starts, rng);
      two_opt(instance, solution.order);
      solution.cost = path_length(instance, solution.order);
      return solution;
    }
    case Engine::GreedyEdge:
      return greedy_edge_path(instance);
    case Engine::LinKernighanStyle:
      return lin_kernighan_style_path(instance, rng);
    case Engine::ChainedLK: {
      ChainedLkOptions lk = options.chained_lk;
      lk.seed = options.seed;
      if (lk.threads == 1 && options.threads != 1) lk.threads = options.threads;
      return chained_lk_path(instance, lk);
    }
    case Engine::SimulatedAnnealing: {
      AnnealOptions anneal;
      anneal.seed = options.seed;
      return simulated_annealing_path(instance, anneal);
    }
    case Engine::BranchBound: {
      optimal = true;
      BranchBoundOptions bb;
      bb.node_limit = options.bb_node_limit;
      return branch_bound_path(instance, bb);
    }
    case Engine::Cotree:
      LPTSP_REQUIRE(false, "cotree is the structural tier for cographs, not a TSP engine");
      break;
  }
  LPTSP_ENSURE(false, "unhandled engine");
  return {};
}

}  // namespace

SolveResult solve_labeling_injected(const Graph& graph, const PVec& p,
                                    const MetricInstance& instance, const DistanceMatrix& dist,
                                    const SolveOptions& options) {
  const Timer timer;
  SolveResult result;
  if (graph.n() == 1) {
    result.labeling.labels = {0};
    result.order = {0};
    result.optimal = true;
    result.seconds = timer.seconds();
    return result;
  }

  bool optimal = false;
  PathSolution solution = run_engine(instance, options, optimal);
  result.order = std::move(solution.order);
  result.span = solution.cost;
  result.optimal = optimal;
  result.labeling = labeling_from_order(instance, result.order);
  LPTSP_ENSURE(result.labeling.span() == result.span,
               "Claim 1 prefix labeling must have span equal to the path length");
  LPTSP_ENSURE(is_valid_labeling(graph, dist, p, result.labeling),
               "pipeline produced an invalid labeling — reduction bug");
  result.seconds = timer.seconds();
  return result;
}

SolveResult solve_labeling_reduced(const Graph& graph, const PVec& p,
                                   const ReducedInstance& reduced, const SolveOptions& options) {
  return solve_labeling_injected(graph, p, reduced.instance, reduced.dist, options);
}

SolveResult solve_labeling(const Graph& graph, const PVec& p, const SolveOptions& options) {
  const Timer timer;
  const ReducedInstance reduced = reduce_to_path_tsp(graph, p, options.threads);
  SolveResult result = solve_labeling_reduced(graph, p, reduced, options);
  result.seconds = timer.seconds();
  return result;
}

std::string status_name(SolveStatus status) { return status_name_cstr(status); }

std::string status_message(SolveStatus status, int diameter, const PVec& p) {
  switch (status) {
    case SolveStatus::EmptyGraph:
      return "graph must be non-empty";
    case SolveStatus::Disconnected:
      return "Theorem 2 requires a connected graph";
    case SolveStatus::DiameterExceedsK:
      return "Theorem 2 requires diam(G) <= k; got diameter " + std::to_string(diameter) +
             " with k = " + std::to_string(p.k());
    case SolveStatus::MetricConditionViolated:
      return "Theorem 2 requires pmax <= 2*pmin; p = " + p.to_string();
    case SolveStatus::EngineFailure:
      return "engine failed";
    case SolveStatus::RejectedOverload:
      return "service overloaded: request admission limit reached, retry later";
    case SolveStatus::TimedOut:
      return "request deadline elapsed before a reply arrived";
    case SolveStatus::TransportDisconnected:
      return "connection to the server was lost before a reply arrived";
    case SolveStatus::Ok:
      break;
  }
  return "";
}

SolveStatus classify_labeling_request(const Graph& graph, const PVec& p,
                                      const DistanceMatrix& dist) {
  if (graph.n() == 0) return SolveStatus::EmptyGraph;
  if (!dist.all_finite()) return SolveStatus::Disconnected;
  if (dist.max_finite() > p.k()) return SolveStatus::DiameterExceedsK;
  if (!p.satisfies_reduction_condition()) return SolveStatus::MetricConditionViolated;
  return SolveStatus::Ok;
}

SolveOutcome try_solve_labeling(const Graph& graph, const PVec& p, const SolveOptions& options) {
  SolveOutcome outcome;
  if (graph.n() == 0) {
    outcome.status = SolveStatus::EmptyGraph;
    outcome.message = status_message(outcome.status, 0, p);
    return outcome;
  }
  DistanceMatrix dist = all_pairs_distances(graph, options.threads);
  outcome.status = classify_labeling_request(graph, p, dist);
  if (outcome.status != SolveStatus::Ok) {
    outcome.message = status_message(outcome.status, dist.max_finite(), p);
    return outcome;
  }
  ReducedInstance reduced{instance_from_distances(dist, p, options.threads), std::move(dist)};
  try {
    outcome.result = solve_labeling_reduced(graph, p, reduced, options);
  } catch (const precondition_error& e) {
    // Engine resource caps (Held-Karp max_n, BranchBound node limit) are
    // caller-tunable limits, not library bugs: report them as data.
    outcome.status = SolveStatus::EngineFailure;
    outcome.message = e.what();
  }
  return outcome;
}

}  // namespace lptsp
