// The one evaluation path every search dispatches through.
//
// Every caller — Master::search, the SearchScheduler, make_search_evaluator
// — composes the same staged pipeline instead of its own stack out of
// Worker::evaluate and Worker::evaluate_batch:
//
//   dedup        — genomes sharing a canonical key collapse to one slot
//                  before anything downstream sees the chunk, and the one
//                  outcome fans back to every slot (workers are
//                  deterministic per genome, so the fan-out is exact);
//   fleet cache  — slots whose (eval config, genome) result is already known
//                  fleet-wide are settled without an evaluation;
//   dispatch     — whatever is left goes to Worker::evaluate_batch (the
//                  local pool fan-out, or RemoteWorker's wire shards), and
//                  fresh successes are published back to the fleet cache.
//
// When both upstream stages are inert (no duplicates, no cache) the pipeline
// is Worker::evaluate_batch called verbatim, so routing a search through it
// never changes that search's output.
#pragma once

#include <vector>

#include "core/worker.h"
#include "evo/fitness.h"
#include "evo/genome.h"
#include "util/thread_pool.h"

namespace ecad::core {

/// Hook to a fleet-wide content-addressed result cache.  core stays below
/// net in the layer diagram, so the pipeline sees only this interface;
/// net::RemoteWorker implements it over CacheLookup/CacheStore frames and
/// hands it out via Worker::fleet_cache().  Implementations must be
/// thread-safe (pipelines run concurrently across scheduler tenants).
class FleetEvalCache {
 public:
  virtual ~FleetEvalCache() = default;

  /// Settle every slot whose result the fleet already holds: a hit writes
  /// `outcomes[i].result` and sets `outcomes[i].ok = true`.  Slots left with
  /// `ok == false` are misses and proceed to dispatch.  `outcomes` arrives
  /// sized like `genomes` with every slot unsettled.
  virtual void fleet_lookup(const std::vector<evo::Genome>& genomes,
                            std::vector<evo::EvalOutcome>& outcomes) const = 0;

  /// Publish freshly dispatched outcomes.  Implementations cache only
  /// `ok` slots — a failure is not a content-addressable fact about a
  /// genome.  Best-effort and fire-and-forget: a lost store costs a future
  /// re-evaluation, never correctness.
  virtual void fleet_store(const std::vector<evo::Genome>& genomes,
                           const std::vector<evo::EvalOutcome>& outcomes) const = 0;
};

struct EvalPipelineOptions {
  /// Collapse duplicate genome keys within a chunk before cache + dispatch.
  bool dedup = true;
  /// Consult Worker::fleet_cache() (when the worker exposes one) before
  /// dispatching, and publish fresh successes back to it.
  bool fleet_cache = true;
};

class EvalPipeline {
 public:
  /// `worker` is borrowed and must outlive the pipeline.
  explicit EvalPipeline(const Worker& worker, EvalPipelineOptions options = {});

  /// Run one generation-sized chunk through dedup -> fleet cache ->
  /// dispatch.  Returns one outcome slot per genome in input order, exactly
  /// like Worker::evaluate_batch.
  std::vector<evo::EvalOutcome> evaluate(const std::vector<evo::Genome>& genomes,
                                         util::ThreadPool& pool) const;

 private:
  const Worker& worker_;
  EvalPipelineOptions options_;
};

}  // namespace ecad::core
