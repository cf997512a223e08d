#include "evo/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <set>
#include <thread>

#include "util/metrics.h"

namespace ecad::evo {
namespace {

// Synthetic landscape: fitness rewards a specific trait combination, so the
// engine must actually search to win.  No training involved — fast.
EvalResult landscape(const Genome& genome) {
  EvalResult result;
  double score = 0.0;
  // Prefer exactly 2 hidden layers of width 64.
  if (genome.nna.hidden.size() == 2) score += 0.3;
  for (std::size_t width : genome.nna.hidden) {
    if (width == 64) score += 0.2;
  }
  if (genome.nna.activation == nn::Activation::Tanh) score += 0.1;
  if (genome.grid.rows == 16) score += 0.2;
  result.accuracy = score;
  return result;
}

double accuracy_fitness(const EvalResult& result) { return result.accuracy; }

EvolutionConfig small_config() {
  EvolutionConfig config;
  config.population_size = 8;
  config.max_evaluations = 60;
  return config;
}

TEST(Engine, ImprovesOverRandomInitialization) {
  EvolutionEngine engine(SearchSpace{}, small_config(), landscape, accuracy_fitness);
  util::Rng rng(5);
  util::ThreadPool pool(1);
  const EvolutionResult result = engine.run(rng, pool);

  // Best of the initial population (first 8 history entries) vs final best.
  double initial_best = 0.0;
  for (std::size_t i = 0; i < 8; ++i) {
    initial_best = std::max(initial_best, result.history[i].fitness);
  }
  EXPECT_GE(result.best.fitness, initial_best);
  EXPECT_GT(result.best.fitness, 0.5);  // random genomes average well below this
}

TEST(Engine, RespectsEvaluationBudget) {
  EvolutionEngine engine(SearchSpace{}, small_config(), landscape, accuracy_fitness);
  util::Rng rng(6);
  util::ThreadPool pool(2);
  const EvolutionResult result = engine.run(rng, pool);
  EXPECT_LE(result.stats.models_evaluated, 60u + pool.size());
  EXPECT_EQ(result.history.size(), result.stats.models_evaluated);
}

TEST(Engine, NeverEvaluatesDuplicateGenomes) {
  std::atomic<int> calls{0};
  auto counting = [&calls](const Genome& genome) {
    calls.fetch_add(1);
    return landscape(genome);
  };
  EvolutionEngine engine(SearchSpace{}, small_config(), counting, accuracy_fitness);
  util::Rng rng(7);
  util::ThreadPool pool(1);
  const EvolutionResult result = engine.run(rng, pool);

  std::set<std::string> keys;
  for (const auto& candidate : result.history) keys.insert(candidate.genome.key());
  EXPECT_EQ(keys.size(), result.history.size()) << "duplicate genome was evaluated";
  EXPECT_EQ(static_cast<std::size_t>(calls.load()), result.history.size());
}

TEST(Engine, PopulationSortedBestFirst) {
  EvolutionEngine engine(SearchSpace{}, small_config(), landscape, accuracy_fitness);
  util::Rng rng(8);
  util::ThreadPool pool(1);
  const EvolutionResult result = engine.run(rng, pool);
  for (std::size_t i = 1; i < result.population.size(); ++i) {
    EXPECT_GE(result.population[i - 1].fitness, result.population[i].fitness);
  }
  EXPECT_GE(result.best.fitness, result.population.front().fitness);
}

TEST(Engine, StatsAreInternallyConsistent) {
  EvolutionEngine engine(SearchSpace{}, small_config(), landscape, accuracy_fitness);
  util::Rng rng(9);
  util::ThreadPool pool(1);
  const EvolutionResult result = engine.run(rng, pool);
  EXPECT_GT(result.stats.total_eval_seconds, 0.0);
  EXPECT_NEAR(result.stats.avg_eval_seconds,
              result.stats.total_eval_seconds /
                  static_cast<double>(result.stats.models_evaluated),
              1e-9);
  EXPECT_GT(result.stats.wall_seconds, 0.0);
}

TEST(Engine, DeterministicWithSerialPool) {
  auto run_once = [] {
    EvolutionEngine engine(SearchSpace{}, small_config(), landscape, accuracy_fitness);
    util::Rng rng(11);
    util::ThreadPool pool(1);
    return engine.run(rng, pool);
  };
  const EvolutionResult a = run_once();
  const EvolutionResult b = run_once();
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].genome.key(), b.history[i].genome.key());
  }
  EXPECT_EQ(a.best.genome.key(), b.best.genome.key());
}

TEST(Engine, InfeasibleCandidatesNeverWin) {
  auto hostile = [](const Genome& genome) {
    EvalResult result = landscape(genome);
    // Make the otherwise-best trait infeasible.
    if (genome.grid.rows == 16) {
      result.feasible = false;
      result.accuracy = 1e9;
    }
    return result;
  };
  auto fitness = [](const EvalResult& result) {
    return result.feasible ? result.accuracy : -std::numeric_limits<double>::infinity();
  };
  EvolutionEngine engine(SearchSpace{}, small_config(), hostile, fitness);
  util::Rng rng(13);
  util::ThreadPool pool(1);
  const EvolutionResult result = engine.run(rng, pool);
  EXPECT_TRUE(result.best.result.feasible);
}

TEST(Engine, ConfigValidation) {
  EvolutionConfig bad = small_config();
  bad.population_size = 1;
  EXPECT_THROW(EvolutionEngine(SearchSpace{}, bad, landscape, accuracy_fitness),
               std::invalid_argument);
  bad = small_config();
  bad.max_evaluations = 2;  // below population
  EXPECT_THROW(EvolutionEngine(SearchSpace{}, bad, landscape, accuracy_fitness),
               std::invalid_argument);
  bad = small_config();
  bad.tournament_size = 0;
  EXPECT_THROW(EvolutionEngine(SearchSpace{}, bad, landscape, accuracy_fitness),
               std::invalid_argument);
}

TEST(Engine, ParallelPoolStillRespectsInvariants) {
  EvolutionEngine engine(SearchSpace{}, small_config(), landscape, accuracy_fitness);
  util::Rng rng(15);
  util::ThreadPool pool(4);
  const EvolutionResult result = engine.run(rng, pool);
  std::set<std::string> keys;
  for (const auto& candidate : result.history) keys.insert(candidate.genome.key());
  EXPECT_EQ(keys.size(), result.history.size());
  EXPECT_GT(result.best.fitness, 0.0);
}

// ---------------------------------------------------------------------------
// Overlapped (pipelined) evolution
// ---------------------------------------------------------------------------

EvolutionConfig overlapped_config() {
  EvolutionConfig config = small_config();
  config.overlap_generations = true;
  config.max_inflight_batches = 2;
  config.batch_size = 4;
  return config;
}

TEST(EngineOverlap, RespectsBudgetAndNeverEvaluatesDuplicates) {
  std::atomic<int> calls{0};
  auto counting = [&calls](const Genome& genome) {
    calls.fetch_add(1);
    return landscape(genome);
  };
  EvolutionEngine engine(SearchSpace{}, overlapped_config(), counting, accuracy_fitness);
  util::Rng rng(21);
  util::ThreadPool pool(2);
  const EvolutionResult result = engine.run(rng, pool);

  EXPECT_LE(result.stats.models_evaluated, overlapped_config().max_evaluations);
  EXPECT_EQ(result.history.size(), result.stats.models_evaluated);
  std::set<std::string> keys;
  for (const auto& candidate : result.history) keys.insert(candidate.genome.key());
  EXPECT_EQ(keys.size(), result.history.size()) << "duplicate genome was evaluated";
  EXPECT_EQ(static_cast<std::size_t>(calls.load()), result.history.size());
  // Breeding actually ran ahead of settled batches.
  EXPECT_GT(result.stats.overlapped_batches, 0u);
}

TEST(Engine, RaceFreeSearchReportsNoCacheRaces) {
  // The engine reserves every key before evaluating it and settles each
  // reservation exactly once, so neither mode can race: settling a
  // reservation must not count in evo.cache_races_total.
  util::Counter& races = util::metrics().counter("evo.cache_races_total");
  for (const EvolutionConfig& config : {small_config(), overlapped_config()}) {
    const double before = races.value();
    EvolutionEngine engine(SearchSpace{}, config, landscape, accuracy_fitness);
    util::Rng rng(31);
    util::ThreadPool pool(2);
    const EvolutionResult result = engine.run(rng, pool);
    EXPECT_GT(result.stats.models_evaluated, 0u);
    EXPECT_DOUBLE_EQ(races.value(), before)
        << "overlap=" << config.overlap_generations;
  }
}

TEST(EngineOverlap, TrajectoryIsDeterministic) {
  auto run_once = [] {
    EvolutionEngine engine(SearchSpace{}, overlapped_config(), landscape, accuracy_fitness);
    util::Rng rng(23);
    util::ThreadPool pool(4);  // pool width must not matter: folds are ordered
    return engine.run(rng, pool);
  };
  const EvolutionResult a = run_once();
  const EvolutionResult b = run_once();
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].genome.key(), b.history[i].genome.key()) << "index " << i;
  }
  EXPECT_EQ(a.best.genome.key(), b.best.genome.key());
  EXPECT_EQ(a.stats.models_evaluated, b.stats.models_evaluated);
}

TEST(EngineOverlap, KeepsTwoBatchesInFlightWithASlowEvaluator) {
  // Gauge the evaluator-side concurrency: with max_inflight_batches = 2 the
  // dispatcher must overlap two batch evaluations at least once.
  std::atomic<int> active{0};
  std::atomic<int> max_active{0};
  EvolutionEngine::BatchEvaluator slow_batches =
      [&](const std::vector<Genome>& genomes, util::ThreadPool&) {
        const int now = active.fetch_add(1) + 1;
        int expected = max_active.load();
        while (now > expected && !max_active.compare_exchange_weak(expected, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(15));
        std::vector<EvalOutcome> outcomes(genomes.size());
        for (std::size_t i = 0; i < genomes.size(); ++i) {
          outcomes[i].result = landscape(genomes[i]);
          outcomes[i].ok = true;
        }
        active.fetch_sub(1);
        return outcomes;
      };
  EvolutionEngine engine(SearchSpace{}, overlapped_config(), slow_batches, accuracy_fitness);
  util::Rng rng(27);
  util::ThreadPool pool(2);
  const EvolutionResult result = engine.run(rng, pool);
  EXPECT_GT(result.stats.models_evaluated, 0u);
  EXPECT_GE(max_active.load(), 2) << "batches never overlapped";
}

TEST(EngineOverlap, BatchFailurePropagatesOutOfRun) {
  EvolutionEngine::BatchEvaluator exploding =
      [](const std::vector<Genome>& genomes, util::ThreadPool&) {
        std::vector<EvalOutcome> outcomes(genomes.size());
        for (std::size_t i = 0; i < genomes.size(); ++i) {
          outcomes[i].error = "synthetic batch failure";
        }
        return outcomes;
      };
  EvolutionConfig config = overlapped_config();
  EvolutionEngine engine(SearchSpace{}, config, std::move(exploding), accuracy_fitness);
  util::Rng rng(29);
  util::ThreadPool pool(2);
  EXPECT_THROW(engine.run(rng, pool), std::runtime_error);
}

TEST(EngineOverlap, ConfigValidation) {
  EvolutionConfig bad = overlapped_config();
  bad.max_inflight_batches = 0;
  EXPECT_THROW(EvolutionEngine(SearchSpace{}, bad, landscape, accuracy_fitness),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// AsyncBatchDispatcher
// ---------------------------------------------------------------------------

TEST(AsyncBatchDispatcher, SubmitPollWaitLifecycle) {
  util::ThreadPool pool(2);
  const EvolutionEngine::BatchEvaluator evaluate =
      [](const std::vector<Genome>& genomes, util::ThreadPool&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        std::vector<EvalOutcome> outcomes(genomes.size());
        for (std::size_t i = 0; i < genomes.size(); ++i) {
          outcomes[i].result.accuracy = static_cast<double>(i);
          outcomes[i].ok = true;
        }
        return outcomes;
      };
  AsyncBatchDispatcher dispatcher(evaluate, pool);

  SearchSpace space;
  util::Rng rng(31);
  std::vector<Genome> batch;
  for (int i = 0; i < 3; ++i) batch.push_back(random_genome(space, rng));
  const auto ticket = dispatcher.submit(batch);
  EXPECT_EQ(dispatcher.in_flight(), 1u);

  const std::vector<EvalOutcome> outcomes = dispatcher.wait(ticket);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[1].result.accuracy, 1.0);
  EXPECT_EQ(dispatcher.in_flight(), 0u);

  // A collected (or never-issued) ticket is an error, and poll says no.
  EXPECT_FALSE(dispatcher.poll(ticket));
  EXPECT_THROW(dispatcher.wait(ticket), std::invalid_argument);
}

}  // namespace
}  // namespace ecad::evo
