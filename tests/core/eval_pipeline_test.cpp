// core::EvalPipeline: the staged dedup -> fleet cache -> dispatch path every
// search evaluates through.  The contract under test: stage-inert chunks are
// bit-identical to Worker::evaluate_batch, duplicate slots share one
// evaluation, cache hits skip dispatch entirely, and only freshly dispatched
// successes are published back.
#include "core/eval_pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/worker.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace ecad::core {
namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Deterministic synthetic worker: the result is a pure function of the
/// genome, evaluations are counted, and one marker genome (hidden = {13})
/// always throws — the per-slot failure path.
class StubWorker : public Worker {
 public:
  std::string name() const override { return "stub"; }

  evo::EvalResult evaluate(const evo::Genome& genome) const override {
    evaluations.fetch_add(1, std::memory_order_relaxed);
    if (!genome.nna.hidden.empty() && genome.nna.hidden.front() == 13) {
      throw std::runtime_error("poisoned genome");
    }
    evo::EvalResult result;
    result.accuracy = static_cast<double>(genome.nna.hidden.front()) / 100.0;
    result.parameters = static_cast<double>(genome.grid.rows);
    result.feasible = true;
    return result;
  }

  mutable std::atomic<int> evaluations{0};
};

/// In-process FleetEvalCache: a map plus a log of what was stored, so tests
/// can assert exactly which outcomes the pipeline published.
class FakeFleetCache final : public FleetEvalCache {
 public:
  void fleet_lookup(const std::vector<evo::Genome>& genomes,
                    std::vector<evo::EvalOutcome>& outcomes) const override {
    lookups.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i = 0; i < genomes.size() && i < outcomes.size(); ++i) {
      const auto it = entries.find(genomes[i].key());
      if (it != entries.end()) {
        outcomes[i].result = it->second;
        outcomes[i].ok = true;
      }
    }
  }

  void fleet_store(const std::vector<evo::Genome>& genomes,
                   const std::vector<evo::EvalOutcome>& outcomes) const override {
    for (std::size_t i = 0; i < genomes.size() && i < outcomes.size(); ++i) {
      if (!outcomes[i].ok) continue;  // failures are not cacheable facts
      stored.push_back(genomes[i].key());
      entries[genomes[i].key()] = outcomes[i].result;
    }
  }

  mutable std::map<std::string, evo::EvalResult> entries;
  mutable std::vector<std::string> stored;
  mutable std::atomic<int> lookups{0};
};

/// StubWorker that exposes a FakeFleetCache through the Worker hook, the way
/// net::RemoteWorker exposes the wire-backed tier.
class CachedStubWorker final : public StubWorker {
 public:
  const FleetEvalCache* fleet_cache() const override { return &cache; }
  FakeFleetCache cache;
};

evo::Genome genome_with(std::size_t width) {
  evo::Genome genome;
  genome.nna.hidden = {width};
  genome.grid = {8, 8, 8, 4, 4};
  return genome;
}

TEST(EvalPipeline, FastPathMatchesWorkerBatchDispatch) {
  // No duplicates, no cache: each slot carries exactly the worker's own
  // deterministic result, and every genome is evaluated once.
  StubWorker worker;
  util::ThreadPool pool(2);
  const std::vector<evo::Genome> genomes = {genome_with(16), genome_with(32), genome_with(64)};
  const std::vector<evo::EvalOutcome> outcomes = EvalPipeline(worker).evaluate(genomes, pool);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(worker.evaluations.load(), 3);
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok);
    EXPECT_DOUBLE_EQ(outcomes[i].result.accuracy,
                     static_cast<double>(genomes[i].nna.hidden.front()) / 100.0);
  }
}

TEST(EvalPipeline, DuplicateSlotsShareOneBitIdenticalEvaluation) {
  util::Counter& collapsed = util::metrics().counter("core.dedup_collapsed_total");
  StubWorker worker;
  util::ThreadPool pool(2);
  const evo::Genome a = genome_with(16);
  const evo::Genome b = genome_with(32);
  const std::vector<evo::Genome> genomes = {a, b, a, a, b};
  const double before = collapsed.value();
  const std::vector<evo::EvalOutcome> outcomes = EvalPipeline(worker).evaluate(genomes, pool);
  ASSERT_EQ(outcomes.size(), 5u);
  EXPECT_EQ(worker.evaluations.load(), 2);  // a and b, once each
  EXPECT_DOUBLE_EQ(collapsed.value(), before + 3.0);  // one count per collapsed slot
  // Duplicate slots are fanned out from ONE evaluation, so even the
  // wall-clock eval_seconds bits agree — the strongest identity available.
  for (const std::size_t slot : {2u, 3u}) {
    EXPECT_EQ(bits_of(outcomes[slot].result.accuracy), bits_of(outcomes[0].result.accuracy));
    EXPECT_EQ(bits_of(outcomes[slot].result.eval_seconds),
              bits_of(outcomes[0].result.eval_seconds));
  }
  EXPECT_EQ(bits_of(outcomes[4].result.eval_seconds), bits_of(outcomes[1].result.eval_seconds));

  // A duplicate-free chunk must not touch the counter (fast path).
  const double mid = collapsed.value();
  EvalPipeline(worker).evaluate({genome_with(24), genome_with(48)}, pool);
  EXPECT_DOUBLE_EQ(collapsed.value(), mid);
}

TEST(EvalPipeline, FailedSlotsCarryTheirErrorThroughDedup) {
  StubWorker worker;
  util::ThreadPool pool(2);
  const evo::Genome poisoned = genome_with(13);
  const std::vector<evo::Genome> genomes = {poisoned, genome_with(16), poisoned};
  const std::vector<evo::EvalOutcome> outcomes = EvalPipeline(worker).evaluate(genomes, pool);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_NE(outcomes[0].error.find("poisoned"), std::string::npos);
  EXPECT_TRUE(outcomes[1].ok);
  EXPECT_FALSE(outcomes[2].ok);
  EXPECT_EQ(worker.evaluations.load(), 2);  // the poisoned genome failed once, not twice
}

TEST(EvalPipeline, CacheHitsSkipDispatchAndReturnTheCachedBits) {
  CachedStubWorker worker;
  util::ThreadPool pool(2);
  const evo::Genome a = genome_with(16);
  const evo::Genome b = genome_with(32);
  evo::EvalResult cached;
  cached.accuracy = 0.5625;
  cached.eval_seconds = 1.25;
  worker.cache.entries[a.key()] = cached;

  const std::vector<evo::EvalOutcome> outcomes = EvalPipeline(worker).evaluate({a, b}, pool);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(worker.evaluations.load(), 1);  // only b dispatched
  ASSERT_TRUE(outcomes[0].ok);
  EXPECT_EQ(bits_of(outcomes[0].result.accuracy), bits_of(cached.accuracy));
  EXPECT_EQ(bits_of(outcomes[0].result.eval_seconds), bits_of(cached.eval_seconds));
  ASSERT_TRUE(outcomes[1].ok);
  EXPECT_DOUBLE_EQ(outcomes[1].result.accuracy, 0.32);
}

TEST(EvalPipeline, OnlyFreshDispatchSuccessesArePublished) {
  CachedStubWorker worker;
  util::ThreadPool pool(2);
  const evo::Genome hit = genome_with(16);
  const evo::Genome fresh = genome_with(32);
  const evo::Genome poisoned = genome_with(13);
  worker.cache.entries[hit.key()] = evo::EvalResult{};

  EvalPipeline(worker).evaluate({hit, fresh, poisoned}, pool);
  // The hit is already a fleet-wide fact and the failure is not a fact at
  // all; only the fresh success lands in the store log.
  ASSERT_EQ(worker.cache.stored.size(), 1u);
  EXPECT_EQ(worker.cache.stored[0], fresh.key());
}

TEST(EvalPipeline, FullyCachedChunkDispatchesNothing) {
  CachedStubWorker worker;
  util::ThreadPool pool(2);
  const evo::Genome a = genome_with(16);
  worker.cache.entries[a.key()] = evo::EvalResult{};
  const std::vector<evo::EvalOutcome> outcomes = EvalPipeline(worker).evaluate({a, a}, pool);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_TRUE(outcomes[1].ok);
  EXPECT_EQ(worker.evaluations.load(), 0);
  EXPECT_TRUE(worker.cache.stored.empty());
}

TEST(EvalPipeline, DedupCollapsesBeforeTheCacheSeesTheChunk) {
  CachedStubWorker worker;
  util::ThreadPool pool(2);
  const evo::Genome a = genome_with(16);
  const std::vector<evo::EvalOutcome> outcomes =
      EvalPipeline(worker).evaluate({a, a, a, genome_with(32)}, pool);
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_EQ(worker.cache.lookups.load(), 1);  // one lookup over the UNIQUE chunk
  EXPECT_EQ(worker.evaluations.load(), 2);
  // Both unique successes were published exactly once.
  EXPECT_EQ(worker.cache.stored.size(), 2u);
}

TEST(EvalPipeline, OptionsDisableTheCacheStage) {
  CachedStubWorker worker;
  util::ThreadPool pool(2);
  const evo::Genome a = genome_with(16);
  worker.cache.entries[a.key()] = evo::EvalResult{};
  EvalPipelineOptions options;
  options.fleet_cache = false;
  const std::vector<evo::EvalOutcome> outcomes =
      EvalPipeline(worker, options).evaluate({a}, pool);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(worker.evaluations.load(), 1);  // dispatched despite the cached entry
  EXPECT_EQ(worker.cache.lookups.load(), 0);
}

TEST(EvalPipeline, WorkersWithoutACacheExposeNullptr) {
  StubWorker worker;
  EXPECT_EQ(worker.fleet_cache(), nullptr);
}

TEST(EvalPipeline, MalformedBackendAnswerPropagatesVerbatim) {
  // A worker returning the wrong slot count is the engine's size check's
  // problem; the pipeline must hand it through unmodified, exactly like the
  // legacy dedup path did.
  class BrokenWorker final : public Worker {
   public:
    std::string name() const override { return "broken"; }
    evo::EvalResult evaluate(const evo::Genome&) const override { return {}; }
    std::vector<evo::EvalOutcome> evaluate_batch(const std::vector<evo::Genome>&,
                                                 util::ThreadPool&) const override {
      return std::vector<evo::EvalOutcome>(1);
    }
  };
  BrokenWorker worker;
  util::ThreadPool pool(2);
  const evo::Genome a = genome_with(16);
  const std::vector<evo::EvalOutcome> outcomes =
      EvalPipeline(worker).evaluate({a, a, genome_with(32)}, pool);
  EXPECT_EQ(outcomes.size(), 1u);  // the malformed answer, not a fan-out
}

}  // namespace
}  // namespace ecad::core
