#include "evo/engine.h"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace ecad::evo {

namespace {

// Legacy per-genome evaluators become one-item-per-task batch evaluators.
// No try/catch: parallel_for already rethrows the first exception in index
// order, which is exactly the pre-batching contract.
EvolutionEngine::BatchEvaluator wrap_per_genome(EvolutionEngine::Evaluator evaluate) {
  return [evaluate = std::move(evaluate)](const std::vector<Genome>& genomes,
                                          util::ThreadPool& pool) {
    std::vector<EvalOutcome> outcomes(genomes.size());
    pool.parallel_for(genomes.size(), [&](std::size_t i) {
      util::Stopwatch watch;
      outcomes[i].result = evaluate(genomes[i]);
      outcomes[i].result.eval_seconds = watch.elapsed_seconds();
      outcomes[i].ok = true;
    });
    return outcomes;
  };
}

}  // namespace

// ---------------------------------------------------------------------------
// AsyncBatchDispatcher
// ---------------------------------------------------------------------------

AsyncBatchDispatcher::Ticket AsyncBatchDispatcher::submit(std::vector<Genome> genomes) {
  util::MutexLock lock(mutex_);
  const Ticket ticket = next_ticket_++;
  // One dedicated thread per in-flight batch (the engine bounds how many):
  // the evaluation may block on the network for a long time, and parking it
  // on the shared pool would steal a thread the evaluator itself needs.
  futures_.emplace(ticket,
                   std::async(std::launch::async, [this, genomes = std::move(genomes)] {
                     return evaluate_(genomes, pool_);
                   }));
  return ticket;
}

bool AsyncBatchDispatcher::poll(Ticket ticket) const {
  util::MutexLock lock(mutex_);
  const auto it = futures_.find(ticket);
  if (it == futures_.end()) return false;
  return it->second.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

std::vector<EvalOutcome> AsyncBatchDispatcher::wait(Ticket ticket) {
  std::future<std::vector<EvalOutcome>> future;
  {
    util::MutexLock lock(mutex_);
    const auto it = futures_.find(ticket);
    if (it == futures_.end()) {
      throw std::invalid_argument("AsyncBatchDispatcher: unknown ticket " +
                                  std::to_string(ticket));
    }
    future = std::move(it->second);
    futures_.erase(it);
  }
  return future.get();
}

std::size_t AsyncBatchDispatcher::in_flight() const {
  util::MutexLock lock(mutex_);
  return futures_.size();
}

// ---------------------------------------------------------------------------
// EvolutionEngine
// ---------------------------------------------------------------------------

EvolutionEngine::EvolutionEngine(SearchSpace space, EvolutionConfig config, Evaluator evaluate,
                                 Fitness fitness)
    : EvolutionEngine(std::move(space), config, wrap_per_genome(std::move(evaluate)),
                      std::move(fitness)) {}

EvolutionEngine::EvolutionEngine(SearchSpace space, EvolutionConfig config,
                                 BatchEvaluator evaluate, Fitness fitness)
    : space_(std::move(space)),
      config_(config),
      evaluate_(std::move(evaluate)),
      fitness_(std::move(fitness)) {
  space_.validate();
  if (config_.population_size < 2) {
    throw std::invalid_argument("EvolutionEngine: population_size must be >= 2");
  }
  if (config_.max_evaluations < config_.population_size) {
    throw std::invalid_argument("EvolutionEngine: budget smaller than the population");
  }
  if (config_.tournament_size == 0) {
    throw std::invalid_argument("EvolutionEngine: tournament_size must be >= 1");
  }
  if (config_.overlap_generations && config_.max_inflight_batches == 0) {
    throw std::invalid_argument("EvolutionEngine: max_inflight_batches must be >= 1");
  }
}

std::vector<Candidate> EvolutionEngine::fold_outcomes(const std::vector<Genome>& genomes,
                                                      std::vector<EvalOutcome> outcomes) {
  if (outcomes.size() != genomes.size()) {
    throw std::runtime_error("EvolutionEngine: batch evaluator returned " +
                             std::to_string(outcomes.size()) + " outcomes for " +
                             std::to_string(genomes.size()) + " genomes");
  }
  for (const EvalOutcome& outcome : outcomes) {
    if (!outcome.ok) throw std::runtime_error(outcome.error);
  }
  std::vector<Candidate> candidates(genomes.size());
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    Candidate& candidate = candidates[i];
    candidate.genome = genomes[i];
    candidate.result = outcomes[i].result;
    candidate.fitness = fitness_(candidate.result);
    cache_.store(candidate.genome.key(), candidate.result);
  }
  {
    util::MutexLock lock(stats_mutex_);
    stats_.models_evaluated += genomes.size();
    for (const Candidate& candidate : candidates) {
      stats_.total_eval_seconds += candidate.result.eval_seconds;
    }
  }
  return candidates;
}

std::vector<Candidate> EvolutionEngine::evaluate_generation(const std::vector<Genome>& genomes,
                                                            util::ThreadPool& pool) {
  return fold_outcomes(genomes, evaluate_(genomes, pool));
}

std::size_t EvolutionEngine::models_evaluated() const {
  util::MutexLock lock(stats_mutex_);
  return stats_.models_evaluated;
}

bool EvolutionEngine::notify_progress(std::size_t generation,
                                      const std::vector<Candidate>& population,
                                      const std::vector<Candidate>& history) {
  if (!observer_) return true;
  GenerationProgress progress;
  progress.generation = generation;
  {
    util::MutexLock lock(stats_mutex_);
    progress.models_evaluated = stats_.models_evaluated;
    progress.duplicates_skipped = stats_.duplicates_skipped;
  }
  progress.population = &population;
  progress.history = &history;
  return observer_(progress);
}

std::size_t EvolutionEngine::tournament_best(const std::vector<Candidate>& population,
                                             util::Rng& rng) const {
  std::size_t best = rng.next_index(population.size());
  for (std::size_t round = 1; round < config_.tournament_size; ++round) {
    const std::size_t challenger = rng.next_index(population.size());
    if (population[challenger].fitness > population[best].fitness) best = challenger;
  }
  return best;
}

std::size_t EvolutionEngine::tournament_worst(const std::vector<Candidate>& population,
                                              util::Rng& rng) const {
  std::size_t worst = rng.next_index(population.size());
  for (std::size_t round = 1; round < config_.tournament_size; ++round) {
    const std::size_t challenger = rng.next_index(population.size());
    if (population[challenger].fitness < population[worst].fitness) worst = challenger;
  }
  return worst;
}

std::vector<Genome> EvolutionEngine::breed_offspring(const std::vector<Candidate>& population,
                                                     std::size_t count, util::Rng& rng) {
  std::vector<Genome> offspring;
  offspring.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Genome child;
    std::string key;
    bool fresh = false;
    for (std::size_t attempt = 0; attempt < config_.dedup_attempts && !fresh; ++attempt) {
      const Candidate& parent_a = population[tournament_best(population, rng)];
      if (rng.next_bool(config_.crossover_probability)) {
        const Candidate& parent_b = population[tournament_best(population, rng)];
        child = crossover(parent_a.genome, parent_b.genome, space_, rng);
      } else {
        child = parent_a.genome;
      }
      // 1 + Poisson-ish extra mutations.
      std::size_t mutations = 1;
      double extra = config_.mutation_strength - 1.0;
      while (extra > 0.0 && rng.next_bool(std::min(1.0, extra))) {
        ++mutations;
        extra -= 1.0;
      }
      child = mutate(child, space_, rng, mutations);
      key = child.key();
      fresh = !cache_.contains(key);
    }
    if (!fresh) {
      util::MutexLock lock(stats_mutex_);
      ++stats_.duplicates_skipped;
      continue;  // all attempts hit known genomes; skip this slot
    }
    // Reserve the key so no later batch (in flight or not) can contain twins.
    cache_.reserve(key);
    offspring.push_back(std::move(child));
  }
  if (offspring.empty()) {
    // Search space locally exhausted around the population; inject a random
    // immigrant to keep progress.  A duplicate immigrant means even random
    // sampling cannot escape the evaluated neighborhood: stop the search
    // (signalled by the empty vector).
    Genome immigrant = random_genome(space_, rng);
    const std::string key = immigrant.key();
    if (cache_.contains(key)) return offspring;
    cache_.reserve(key);
    offspring.push_back(std::move(immigrant));
  }
  return offspring;
}

void EvolutionEngine::replace_into(std::vector<Candidate> evaluated,
                                   std::vector<Candidate>& population,
                                   std::vector<Candidate>& history, util::Rng& rng) {
  for (Candidate& candidate : evaluated) {
    history.push_back(candidate);
    const std::size_t victim = tournament_worst(population, rng);
    if (candidate.fitness > population[victim].fitness) {
      population[victim] = std::move(candidate);
    }
  }
}

EvolutionResult EvolutionEngine::finalize(std::vector<Candidate> population,
                                          std::vector<Candidate> history, double wall_seconds) {
  EvolutionResult out;
  std::sort(population.begin(), population.end(),
            [](const Candidate& a, const Candidate& b) { return a.fitness > b.fitness; });
  out.population = std::move(population);
  out.history = std::move(history);
  out.best = out.history.front();
  for (const Candidate& candidate : out.history) {
    if (candidate.fitness > out.best.fitness) out.best = candidate;
  }
  {
    util::MutexLock lock(stats_mutex_);
    stats_.wall_seconds = wall_seconds;
    stats_.avg_eval_seconds = stats_.models_evaluated == 0
                                  ? 0.0
                                  : stats_.total_eval_seconds /
                                        static_cast<double>(stats_.models_evaluated);
    out.stats = stats_;
  }
  util::Log(util::LogLevel::Info, "evo")
      << "search done: " << out.stats.models_evaluated << " models, best fitness "
      << out.best.fitness << " (" << out.best.genome.key() << ")";
  return out;
}

EvolutionResult EvolutionEngine::run(util::Rng& rng, util::ThreadPool& pool) {
  util::Stopwatch wall;

  // --- Initial population: unique random genomes, evaluated in parallel.
  // Always synchronous, even in overlapped mode — breeding needs a fully
  // scored population before any pipelining can start. ---
  std::vector<Genome> seeds;
  seeds.reserve(config_.population_size);
  std::size_t attempts = 0;
  while (seeds.size() < config_.population_size &&
         attempts < config_.population_size * 50) {
    Genome genome = random_genome(space_, rng);
    ++attempts;
    // key() renders exactly the fields == compares, so equal genomes are
    // the duplicates a key comparison would find.
    if (std::find(seeds.begin(), seeds.end(), genome) == seeds.end()) {
      seeds.push_back(std::move(genome));
    }
  }
  std::vector<Candidate> population = [&] {
    util::TraceSpan span("evo", "generation 0");
    return evaluate_generation(seeds, pool);
  }();

  std::vector<Candidate> history = population;
  EvolutionResult out =
      config_.overlap_generations
          ? run_overlapped(rng, pool, std::move(population), std::move(history), 0, {},
                           models_evaluated(), /*resumed=*/false)
          : run_sequential(rng, pool, std::move(population), std::move(history), 0,
                           /*resumed=*/false);
  out.stats.wall_seconds = wall.elapsed_seconds();
  {
    util::MutexLock lock(stats_mutex_);
    stats_.wall_seconds = out.stats.wall_seconds;
  }
  return out;
}

EvolutionResult EvolutionEngine::resume(const EngineSnapshot& snapshot, util::Rng& rng,
                                        util::ThreadPool& pool) {
  util::Stopwatch wall;
  if (snapshot.population.empty()) {
    throw std::invalid_argument("EvolutionEngine: snapshot has an empty population");
  }
  if (snapshot.history.size() < snapshot.population.size()) {
    throw std::invalid_argument(
        "EvolutionEngine: snapshot history is smaller than its population");
  }
  if (snapshot.overlap != config_.overlap_generations) {
    throw std::invalid_argument(
        "EvolutionEngine: snapshot mode does not match the engine config "
        "(overlap_generations mismatch)");
  }
  if (!snapshot.pending.empty() && !config_.overlap_generations) {
    throw std::invalid_argument("EvolutionEngine: sequential snapshot has in-flight batches");
  }
  rng.deserialize(snapshot.rng_state);

  // Rebuild the dedup cache exactly as the original process had it: settled
  // results from the history, reservation placeholders for batches that were
  // still in flight (their keys must stay claimed so resumed breeding cannot
  // produce twins).
  for (const Candidate& candidate : snapshot.history) {
    cache_.store(candidate.genome.key(), candidate.result);
  }
  for (const std::vector<Genome>& batch : snapshot.pending) {
    for (const Genome& genome : batch) cache_.reserve(genome.key());
  }
  cache_.restore_stats(static_cast<std::size_t>(snapshot.cache_hits),
                       static_cast<std::size_t>(snapshot.cache_misses));
  {
    util::MutexLock lock(stats_mutex_);
    stats_.models_evaluated = static_cast<std::size_t>(snapshot.models_evaluated);
    stats_.duplicates_skipped = static_cast<std::size_t>(snapshot.duplicates_skipped);
    stats_.overlapped_batches = static_cast<std::size_t>(snapshot.overlapped_batches);
    stats_.total_eval_seconds = snapshot.total_eval_seconds;
  }

  util::Log(util::LogLevel::Info, "evo")
      << "resuming search at generation " << snapshot.generation << " ("
      << snapshot.models_evaluated << " models evaluated, " << snapshot.pending.size()
      << " batches in flight)";

  EvolutionResult out =
      config_.overlap_generations
          ? run_overlapped(rng, pool, snapshot.population, snapshot.history,
                           static_cast<std::size_t>(snapshot.generation), snapshot.pending,
                           static_cast<std::size_t>(snapshot.submitted), /*resumed=*/true)
          : run_sequential(rng, pool, snapshot.population, snapshot.history,
                           static_cast<std::size_t>(snapshot.generation), /*resumed=*/true);
  out.stats.wall_seconds = wall.elapsed_seconds();
  {
    util::MutexLock lock(stats_mutex_);
    stats_.wall_seconds = out.stats.wall_seconds;
  }
  return out;
}

void EvolutionEngine::emit_checkpoint(const util::Rng& rng, std::size_t generation,
                                      std::size_t submitted,
                                      const std::vector<Candidate>& population,
                                      const std::vector<Candidate>& history,
                                      std::vector<std::vector<Genome>> pending) {
  if (!checkpoint_) return;
  EngineSnapshot snapshot;
  snapshot.rng_state = rng.serialize();
  snapshot.overlap = config_.overlap_generations;
  snapshot.generation = generation;
  snapshot.submitted = submitted;
  snapshot.population = population;
  snapshot.history = history;
  snapshot.pending = std::move(pending);
  {
    util::MutexLock lock(stats_mutex_);
    snapshot.models_evaluated = stats_.models_evaluated;
    snapshot.duplicates_skipped = stats_.duplicates_skipped;
    snapshot.overlapped_batches = stats_.overlapped_batches;
    snapshot.total_eval_seconds = stats_.total_eval_seconds;
  }
  snapshot.cache_hits = cache_.hits();
  snapshot.cache_misses = cache_.misses();
  checkpoint_(snapshot);
}

EvolutionResult EvolutionEngine::run_sequential(util::Rng& rng, util::ThreadPool& pool,
                                                std::vector<Candidate> population,
                                                std::vector<Candidate> history,
                                                std::size_t start_generation, bool resumed) {
  util::Stopwatch wall;

  const std::size_t batch =
      config_.batch_size == 0 ? std::max<std::size_t>(1, pool.size()) : config_.batch_size;

  std::size_t generation = start_generation;
  bool keep_going = true;
  if (!resumed) {
    keep_going = notify_progress(generation, population, history);
    emit_checkpoint(rng, generation, models_evaluated(), population, history, {});
  }

  while (keep_going) {
    // The budget check was an unlocked read of a stats_mutex_-guarded field
    // until the thread-safety analysis flagged it; the locked accessor also
    // keeps it sound if batch evaluators ever update stats concurrently.
    const std::size_t evaluated_so_far = models_evaluated();
    if (evaluated_so_far >= config_.max_evaluations) break;
    const std::size_t this_batch = std::min(batch, config_.max_evaluations - evaluated_so_far);

    // Generate offspring serially (cheap; keeps RNG deterministic).
    std::vector<Genome> offspring = breed_offspring(population, this_batch, rng);
    if (offspring.empty()) break;

    util::TraceSpan gen_span("evo", "generation " + std::to_string(generation + 1));
    std::vector<Candidate> evaluated = evaluate_generation(offspring, pool);
    replace_into(std::move(evaluated), population, history, rng);
    keep_going = notify_progress(++generation, population, history);
    emit_checkpoint(rng, generation, models_evaluated(), population, history, {});
  }

  return finalize(std::move(population), std::move(history), wall.elapsed_seconds());
}

EvolutionResult EvolutionEngine::run_overlapped(util::Rng& rng, util::ThreadPool& pool,
                                                std::vector<Candidate> population,
                                                std::vector<Candidate> history,
                                                std::size_t start_generation,
                                                std::vector<std::vector<Genome>> pending,
                                                std::size_t submitted_start, bool resumed) {
  util::Stopwatch wall;

  const std::size_t batch =
      config_.batch_size == 0 ? std::max<std::size_t>(1, pool.size()) : config_.batch_size;
  const std::size_t max_inflight = std::max<std::size_t>(1, config_.max_inflight_batches);

  AsyncBatchDispatcher dispatcher(evaluate_, pool);
  struct InFlight {
    AsyncBatchDispatcher::Ticket ticket = 0;
    std::vector<Genome> genomes;
  };
  std::deque<InFlight> inflight;

  // Resume: re-dispatch the batches the dead process had in flight, in the
  // original submission order, before anything new is bred.  Their genomes
  // were bred before the snapshot (the RNG already reflects them) and their
  // cache keys are reserved, so the continuation interleaves exactly like
  // the uninterrupted run.
  for (std::vector<Genome>& genomes : pending) {
    InFlight entry;
    entry.genomes = genomes;
    entry.ticket = dispatcher.submit(std::move(genomes));
    inflight.push_back(std::move(entry));
  }

  // Budget accounting runs on *submitted* genomes: every submitted batch is
  // eventually folded, so models_evaluated catches up exactly, and breeding
  // ahead can never overshoot max_evaluations.
  std::size_t submitted = submitted_start;

  std::size_t generation = start_generation;
  bool stopped = false;
  if (!resumed) {
    stopped = !notify_progress(generation, population, history);
    emit_checkpoint(rng, generation, submitted, population, history, {});
  }

  // Checkpoints are only taken at folds forced by a full pipeline (and at
  // generation 0): there the uninterrupted continuation is exactly "re-enter
  // the main loop", which is what resume() does.  Folds in the final drain
  // happen after a breeding decision the snapshot would not capture, so they
  // are not persisted — resume restarts from the last main-loop boundary and
  // deterministically re-does the tail.
  bool persist_checkpoints = true;

  // Fold the oldest in-flight batch — always in submission order, at fixed
  // points in the control flow, so the RNG consumption (and therefore the
  // whole trajectory) is independent of which batch finished first.  A false
  // observer answer stops *breeding*; batches already on the wire still fold
  // below, so a drain always completes its in-flight generations.
  const auto fold_oldest = [&] {
    util::TraceSpan span("evo", "fold generation " + std::to_string(generation + 1));
    InFlight oldest = std::move(inflight.front());
    inflight.pop_front();
    std::vector<Candidate> evaluated =
        fold_outcomes(oldest.genomes, dispatcher.wait(oldest.ticket));
    replace_into(std::move(evaluated), population, history, rng);
    if (!notify_progress(++generation, population, history)) stopped = true;
    if (persist_checkpoints && checkpoint_) {
      std::vector<std::vector<Genome>> pending_now;
      pending_now.reserve(inflight.size());
      for (const InFlight& entry : inflight) pending_now.push_back(entry.genomes);
      emit_checkpoint(rng, generation, submitted, population, history, std::move(pending_now));
    }
  };

  while (true) {
    // Pipeline full: block on the oldest batch before breeding again.
    while (inflight.size() >= max_inflight) fold_oldest();
    if (stopped || submitted >= config_.max_evaluations) break;
    const std::size_t this_batch = std::min(batch, config_.max_evaluations - submitted);

    // Parents are the population as of the last fold — already scored; the
    // tail of the previous generation may still be in flight right now.
    std::vector<Genome> offspring = breed_offspring(population, this_batch, rng);
    if (offspring.empty()) break;
    submitted += offspring.size();
    if (!inflight.empty()) {
      util::MutexLock lock(stats_mutex_);
      ++stats_.overlapped_batches;
    }
    InFlight entry;
    entry.genomes = offspring;  // keep a copy: outcomes are folded by index
    entry.ticket = dispatcher.submit(std::move(offspring));
    inflight.push_back(std::move(entry));
  }
  persist_checkpoints = false;
  while (!inflight.empty()) fold_oldest();

  return finalize(std::move(population), std::move(history), wall.elapsed_seconds());
}

}  // namespace ecad::evo
