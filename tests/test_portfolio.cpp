#include <gtest/gtest.h>

#include <chrono>

#include "core/reduction.hpp"
#include "core/solvers.hpp"
#include "graph/generators.hpp"
#include "service/portfolio.hpp"
#include "service/tuner.hpp"
#include "util/rng.hpp"

namespace lptsp {
namespace {

MetricInstance reduced_instance(const Graph& graph, const PVec& p) {
  return reduce_to_path_tsp(graph, p, 1).instance;
}

TEST(Portfolio, ReturnsOptimalOnSmallInstancesWithoutDeadline) {
  TaskPool pool(4);
  PortfolioOptions options;
  options.deadline = std::chrono::milliseconds{0};  // run everything out
  EnginePortfolio portfolio(pool, options);
  Rng rng(5);
  for (int trial = 0; trial < 4; ++trial) {
    const Graph graph = random_with_diameter_at_most(12, 2, 0.3, rng);
    const MetricInstance instance = reduced_instance(graph, PVec::L21());

    SolveOptions exact;
    exact.engine = Engine::HeldKarp;
    const Weight optimal_span = solve_labeling(graph, PVec::L21(), exact).span;

    const PortfolioOutcome outcome = portfolio.race(instance);
    EXPECT_TRUE(outcome.optimal);
    EXPECT_EQ(outcome.solution.cost, optimal_span);
    EXPECT_TRUE(is_valid_order(outcome.solution.order, graph.n()));
    EXPECT_EQ(path_length(instance, outcome.solution.order), outcome.solution.cost);
    EXPECT_GE(outcome.attempts.size(), 2u);
    for (const EngineAttempt& attempt : outcome.attempts) {
      if (attempt.finished) {
        EXPECT_TRUE(attempt.verified);
      }
    }
  }
}

TEST(Portfolio, NeverWorseThanSingleHeuristicEngine) {
  TaskPool pool(4);
  PortfolioOptions options;
  options.deadline = std::chrono::milliseconds{0};
  EnginePortfolio portfolio(pool, options);
  Rng rng(17);
  // n = 16 keeps Held-Karp in the race (and fast), so the portfolio's
  // answer is provably <= the standalone heuristic's.
  const Graph graph = random_with_diameter_at_most(16, 2, 0.25, rng);
  const MetricInstance instance = reduced_instance(graph, PVec::L21());

  ChainedLkOptions lk;
  lk.seed = options.seed;
  const Weight heuristic_cost = chained_lk_path(instance, lk).cost;

  const PortfolioOutcome outcome = portfolio.race(instance);
  EXPECT_LE(outcome.solution.cost, heuristic_cost);
}

TEST(Portfolio, TightDeadlineStillYieldsVerifiedResult) {
  TaskPool pool(4);
  PortfolioOptions options;
  options.deadline = std::chrono::milliseconds{5};
  EnginePortfolio portfolio(pool, options);
  Rng rng(29);
  const Graph graph = random_with_diameter_at_most(80, 2, 0.15, rng);
  const MetricInstance instance = reduced_instance(graph, PVec::L21());
  const PortfolioOutcome outcome = portfolio.race(instance);
  ASSERT_GE(outcome.solution.cost, 0);
  EXPECT_TRUE(is_valid_order(outcome.solution.order, graph.n()));
  EXPECT_EQ(path_length(instance, outcome.solution.order), outcome.solution.cost);
  bool winner_verified = false;
  for (const EngineAttempt& attempt : outcome.attempts) {
    if (attempt.engine == outcome.winner && attempt.verified) winner_verified = true;
  }
  EXPECT_TRUE(winner_verified);
}

bool launched_exact(const PortfolioOutcome& outcome) {
  for (const EngineAttempt& attempt : outcome.attempts) {
    if (attempt.engine == Engine::HeldKarp || attempt.engine == Engine::BranchBound) return true;
  }
  return false;
}

/// A tuner whose persisted scores say the heuristic owns `n`'s bucket and
/// the exact engine never won there.
TunerScores poisoned_scores(int n) {
  TunerScores scores;
  scores.heuristic[static_cast<std::size_t>(obs::size_bucket(n))] = 1000;
  return scores;
}

TEST(Portfolio, ContestedRacesTeachTheAttachedTuner) {
  TaskPool pool(4);
  PortfolioOptions options;
  options.deadline = std::chrono::milliseconds{0};
  EnginePortfolio portfolio(pool, options);
  EngineTuner tuner;
  portfolio.attach_tuner(&tuner);
  Rng rng(31);
  const Graph graph = random_with_diameter_at_most(12, 2, 0.3, rng);
  const MetricInstance instance = reduced_instance(graph, PVec::L21());
  const PortfolioOutcome outcome = portfolio.race(instance);
  // Unbounded: both engines finish, and the certified optimum wins ties.
  ASSERT_TRUE(outcome.optimal);
  const auto bucket = static_cast<std::size_t>(obs::size_bucket(instance.n()));
  EXPECT_EQ(tuner.scores().exact[bucket], 1.0);
  EXPECT_EQ(tuner.scores().heuristic[bucket], 0.0);
}

TEST(Portfolio, WithoutTunerEveryRaceLaunchesTheExactEngine) {
  TaskPool pool(2);
  PortfolioOptions options;
  options.deadline = std::chrono::milliseconds{0};
  EnginePortfolio portfolio(pool, options);
  Rng rng(11);
  const Graph graph = random_with_diameter_at_most(12, 2, 0.3, rng);
  const MetricInstance instance = reduced_instance(graph, PVec::L21());
  for (int race = 0; race < 24; ++race) {
    EXPECT_TRUE(launched_exact(portfolio.race(instance))) << "race " << race;
  }
}

TEST(Portfolio, LearnOffIgnoresAPoisonedTuner) {
  TaskPool pool(2);
  PortfolioOptions options;
  options.deadline = std::chrono::milliseconds{0};
  options.learn = false;
  EnginePortfolio portfolio(pool, options);
  EngineTuner tuner;
  tuner.seed(poisoned_scores(12));
  portfolio.attach_tuner(&tuner);
  Rng rng(11);
  const Graph graph = random_with_diameter_at_most(12, 2, 0.3, rng);
  const MetricInstance instance = reduced_instance(graph, PVec::L21());
  for (int race = 0; race < 24; ++race) {
    EXPECT_TRUE(launched_exact(portfolio.race(instance))) << "race " << race;
  }
  EXPECT_EQ(tuner.pretrim_skips(), 0u);
}

TEST(Portfolio, PoisonedTunerStillReprobesTheExactEngine) {
  // Regression: heuristic-heavy persisted state used to disable the exact
  // engine permanently — with no exact win on record the skip rule never
  // launched it again, so it could never earn one. The tuner's re-probe
  // must launch the exact engine every Nth otherwise-skipped race and let
  // it win.
  TaskPool pool(2);
  PortfolioOptions options;
  options.deadline = std::chrono::milliseconds{0};  // exact always finishes
  EnginePortfolio portfolio(pool, options);
  EngineTuner tuner;
  tuner.seed(poisoned_scores(12));
  portfolio.attach_tuner(&tuner);

  Rng rng(11);
  const Graph graph = random_with_diameter_at_most(12, 2, 0.3, rng);
  const MetricInstance instance = reduced_instance(graph, PVec::L21());
  // Unbounded races at n = 12: whenever the exact engine is launched it
  // finishes, certifies the optimum, and wins the tie-break against the
  // heuristic — so "exact recovers wins" reduces to "exact is re-probed".
  bool exact_won = false;
  for (int race = 0; race < 64 && !exact_won; ++race) {
    const PortfolioOutcome outcome = portfolio.race(instance);
    ASSERT_GE(outcome.solution.cost, 0);
    exact_won = outcome.winner == Engine::HeldKarp;
  }
  EXPECT_TRUE(exact_won) << "exact engine never won from a poisoned tuner";
  EXPECT_GT(tuner.reprobes(), 0u);
  EXPECT_GT(tuner.pretrim_skips(), 0u);
}

TEST(Portfolio, TrivialInstancesAreExactInline) {
  TaskPool pool(2);
  EnginePortfolio portfolio(pool);
  const MetricInstance instance = reduced_instance(path_graph(2), PVec({2}));
  const PortfolioOutcome outcome = portfolio.race(instance);
  EXPECT_TRUE(outcome.optimal);
  EXPECT_EQ(outcome.solution.cost, 2);
}

}  // namespace
}  // namespace lptsp
