#include "evo/nsga2.h"

#include <algorithm>
#include <limits>

#include "evo/cache.h"
#include "util/stopwatch.h"

namespace ecad::evo {

std::vector<double> crowding_distance(const std::vector<EvalResult>& results,
                                      const std::vector<std::size_t>& front_members,
                                      const std::vector<Metric>& metrics) {
  std::vector<double> distance(results.size(), 0.0);
  if (front_members.size() <= 2) {
    for (std::size_t index : front_members) {
      distance[index] = std::numeric_limits<double>::infinity();
    }
    return distance;
  }
  for (Metric metric : metrics) {
    std::vector<std::size_t> sorted = front_members;
    std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
      return metric_value(results[a], metric) < metric_value(results[b], metric);
    });
    const double lo = metric_value(results[sorted.front()], metric);
    const double hi = metric_value(results[sorted.back()], metric);
    distance[sorted.front()] = std::numeric_limits<double>::infinity();
    distance[sorted.back()] = std::numeric_limits<double>::infinity();
    const double range = hi - lo;
    if (range <= 0.0) continue;
    for (std::size_t i = 1; i + 1 < sorted.size(); ++i) {
      distance[sorted[i]] += (metric_value(results[sorted[i + 1]], metric) -
                              metric_value(results[sorted[i - 1]], metric)) /
                             range;
    }
  }
  return distance;
}

std::vector<std::size_t> nsga2_select(const std::vector<Candidate>& candidates,
                                      const std::vector<Metric>& metrics, std::size_t count) {
  std::vector<EvalResult> results;
  results.reserve(candidates.size());
  for (const Candidate& candidate : candidates) results.push_back(candidate.result);

  const std::vector<std::size_t> rank = nondominated_rank(results, metrics);

  // Group by front.
  std::size_t max_rank = 0;
  for (std::size_t r : rank) max_rank = std::max(max_rank, r);
  std::vector<std::vector<std::size_t>> fronts(max_rank + 1);
  for (std::size_t i = 0; i < rank.size(); ++i) fronts[rank[i]].push_back(i);

  std::vector<std::size_t> selected;
  for (const auto& front : fronts) {
    if (selected.size() >= count) break;
    if (selected.size() + front.size() <= count) {
      selected.insert(selected.end(), front.begin(), front.end());
      continue;
    }
    // Partial front: order by crowding distance (descending).
    const std::vector<double> distance = crowding_distance(results, front, metrics);
    std::vector<std::size_t> ordered = front;
    std::sort(ordered.begin(), ordered.end(),
              [&distance](std::size_t a, std::size_t b) { return distance[a] > distance[b]; });
    for (std::size_t index : ordered) {
      if (selected.size() >= count) break;
      selected.push_back(index);
    }
  }
  return selected;
}

Nsga2Result nsga2_search(const SearchSpace& space, const Nsga2Config& config,
                         const std::vector<Metric>& metrics,
                         const EvolutionEngine::Evaluator& evaluate, util::Rng& rng,
                         util::ThreadPool& pool) {
  space.validate();
  if (config.population_size < 2) {
    throw std::invalid_argument("nsga2_search: population_size must be >= 2");
  }
  if (metrics.empty()) throw std::invalid_argument("nsga2_search: no objectives");

  util::Stopwatch wall;
  Nsga2Result out;
  EvalCache cache;

  auto evaluate_batch = [&](std::vector<Genome> genomes) {
    std::vector<Candidate> evaluated(genomes.size());
    pool.parallel_for(genomes.size(), [&](std::size_t i) {
      Candidate candidate;
      candidate.genome = genomes[i];
      util::Stopwatch watch;
      candidate.result = evaluate(genomes[i]);
      candidate.result.eval_seconds = watch.elapsed_seconds();
      evaluated[i] = std::move(candidate);
    });
    for (const Candidate& candidate : evaluated) {
      cache.store(candidate.genome.key(), candidate.result);
      out.history.push_back(candidate);
      out.stats.total_eval_seconds += candidate.result.eval_seconds;
      ++out.stats.models_evaluated;
    }
    return evaluated;
  };

  // Initial population.
  std::vector<Genome> seeds;
  std::size_t attempts = 0;
  while (seeds.size() < config.population_size && attempts < config.population_size * 50) {
    Genome genome = random_genome(space, rng);
    ++attempts;
    if (cache.contains(genome.key())) continue;
    cache.reserve(genome.key());
    seeds.push_back(std::move(genome));
  }
  std::vector<Candidate> population = evaluate_batch(std::move(seeds));

  for (std::size_t generation = 0; generation < config.generations; ++generation) {
    // Offspring: binary tournaments on (rank, crowding) via nsga2_select order.
    const std::vector<std::size_t> order =
        nsga2_select(population, metrics, population.size());
    auto pick_parent = [&]() -> const Candidate& {
      const std::size_t a = rng.next_index(order.size());
      const std::size_t b = rng.next_index(order.size());
      // Lower position in `order` = better (rank, crowding).
      return population[order[std::min(a, b)]];
    };

    std::vector<Genome> offspring;
    std::size_t tries = 0;
    while (offspring.size() < config.population_size &&
           tries < config.population_size * 30) {
      ++tries;
      Genome child;
      if (rng.next_bool(config.crossover_probability)) {
        child = crossover(pick_parent().genome, pick_parent().genome, space, rng);
      } else {
        child = pick_parent().genome;
      }
      std::size_t mutations = 1;
      double extra = config.mutation_strength - 1.0;
      while (extra > 0.0 && rng.next_bool(std::min(1.0, extra))) {
        ++mutations;
        extra -= 1.0;
      }
      child = mutate(child, space, rng, mutations);
      if (cache.contains(child.key())) {
        ++out.stats.duplicates_skipped;
        continue;
      }
      cache.reserve(child.key());
      offspring.push_back(std::move(child));
    }
    if (offspring.empty()) break;

    std::vector<Candidate> children = evaluate_batch(std::move(offspring));
    // Environmental selection over parents + children.
    std::vector<Candidate> combined = population;
    combined.insert(combined.end(), children.begin(), children.end());
    std::vector<Candidate> next;
    next.reserve(config.population_size);
    for (std::size_t index : nsga2_select(combined, metrics, config.population_size)) {
      next.push_back(combined[index]);
    }
    population = std::move(next);
  }

  // Final front from the full history (maximal coverage, like the paper's
  // post-hoc frontier extraction).
  std::vector<EvalResult> all_results;
  all_results.reserve(out.history.size());
  for (const Candidate& candidate : out.history) all_results.push_back(candidate.result);
  for (std::size_t index : pareto_front(all_results, metrics)) {
    out.front.push_back(out.history[index]);
  }
  std::sort(out.front.begin(), out.front.end(), [](const Candidate& a, const Candidate& b) {
    return a.result.accuracy > b.result.accuracy;
  });

  out.stats.avg_eval_seconds = out.stats.models_evaluated == 0
                                   ? 0.0
                                   : out.stats.total_eval_seconds /
                                         static_cast<double>(out.stats.models_evaluated);
  out.stats.wall_seconds = wall.elapsed_seconds();
  return out;
}

}  // namespace ecad::evo
