#include "core/eval_pipeline.h"

#include <cstddef>
#include <string>
#include <unordered_map>

#include "util/metrics.h"

namespace ecad::core {

EvalPipeline::EvalPipeline(const Worker& worker, EvalPipelineOptions options)
    : worker_(worker), options_(options) {}

std::vector<evo::EvalOutcome> EvalPipeline::evaluate(const std::vector<evo::Genome>& genomes,
                                                     util::ThreadPool& pool) const {
  // Stage 1: dedup.  Slot index -> position in the unique chunk (first
  // occurrence wins).
  std::vector<std::size_t> slot_to_unique(genomes.size());
  std::vector<evo::Genome> unique;
  unique.reserve(genomes.size());
  if (options_.dedup) {
    std::unordered_map<std::string, std::size_t> first_by_key;
    first_by_key.reserve(genomes.size());
    for (std::size_t i = 0; i < genomes.size(); ++i) {
      const auto [it, inserted] = first_by_key.emplace(genomes[i].key(), unique.size());
      if (inserted) unique.push_back(genomes[i]);
      slot_to_unique[i] = it->second;
    }
  } else {
    for (std::size_t i = 0; i < genomes.size(); ++i) {
      unique.push_back(genomes[i]);
      slot_to_unique[i] = i;
    }
  }

  const FleetEvalCache* cache = options_.fleet_cache ? worker_.fleet_cache() : nullptr;

  // Fast path: both upstream stages are inert, so the pipeline *is* the
  // worker's batch call — bit-identical to the pre-pipeline dispatch.
  if (cache == nullptr && unique.size() == genomes.size()) {
    return worker_.evaluate_batch(genomes, pool);
  }

  if (unique.size() != genomes.size()) {
    static util::Counter& collapsed = util::metrics().counter("core.dedup_collapsed_total");
    collapsed.add(genomes.size() - unique.size());
  }

  // Stage 2: fleet cache.  Hits settle their slot (ok = true); everything
  // still unsettled afterwards is a miss bound for dispatch.
  std::vector<evo::EvalOutcome> unique_outcomes(unique.size());
  if (cache != nullptr) cache->fleet_lookup(unique, unique_outcomes);

  // Stage 3: dispatch the misses, then publish fresh successes.  Cache hits
  // are deliberately NOT re-stored — they are already fleet-wide facts.
  std::vector<std::size_t> miss_slots;
  std::vector<evo::Genome> misses;
  for (std::size_t i = 0; i < unique.size(); ++i) {
    if (!unique_outcomes[i].ok) {
      miss_slots.push_back(i);
      misses.push_back(unique[i]);
    }
  }
  if (!misses.empty()) {
    std::vector<evo::EvalOutcome> dispatched = worker_.evaluate_batch(misses, pool);
    if (dispatched.size() != misses.size()) {
      // Propagate a malformed backend answer verbatim; the engine's size
      // check is the layer that reports it.
      return dispatched;
    }
    if (cache != nullptr) cache->fleet_store(misses, dispatched);
    for (std::size_t i = 0; i < misses.size(); ++i) {
      unique_outcomes[miss_slots[i]] = std::move(dispatched[i]);
    }
  }

  if (unique.size() == genomes.size()) return unique_outcomes;
  std::vector<evo::EvalOutcome> outcomes(genomes.size());
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    outcomes[i] = unique_outcomes[slot_to_unique[i]];
  }
  return outcomes;
}

}  // namespace ecad::core
