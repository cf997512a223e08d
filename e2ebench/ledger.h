// Per-layer ledger of the end-to-end benchmark, and the thin decorators that
// fill it by timing calls into the repository's public interfaces from
// outside:
//
//   TimedWorker       core::Worker   evaluate()       -> nn  (inner worker time)
//                                    evaluate_batch() -> core dispatch (local
//                                                        pool) or net dispatch
//                                                        (RemoteWorker)
//   TimedFleetCache   core::FleetEvalCache lookup/store -> net cache traffic
//   timed_evaluator   evo BatchEvaluator                 -> core pipeline
//   timed_checkpoint  evo CheckpointSink                 -> core checkpoint I/O
//
// Counts are always kept.  Clocks, per-item intervals and trace spans are
// kept only when the ledger is `timed` (the benchmark's traced mode), so the
// untraced runs that give the end-to-end metrics pay one relaxed atomic add
// per evaluation and nothing else.
//
// Self time follows the span model: a layer's self time is its call's wall
// time minus the part of that interval its children cover.  Items run on
// pool threads (or on in-process WorkerServer threads), so the part of a
// dispatch they cover is the union of their intervals, not their sum.
#pragma once

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/eval_pipeline.h"
#include "core/worker.h"
#include "evo/engine.h"
#include "util/trace.h"

namespace ecad::e2ebench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Everything the decorators saw during one or more rounds of searches.
/// Times are nanoseconds of wall clock; only filled in timed mode.
struct LayerTotals {
  // Search level (filled by run_search() around each search).
  std::int64_t search_ns = 0;  // whole search, Master::search equivalent
  std::int64_t run_ns = 0;     // EvolutionEngine::run
  std::uint64_t models_evaluated = 0;
  std::uint64_t duplicates_skipped = 0;

  // BatchEvaluator (core pipeline).
  std::int64_t evaluator_ns = 0;
  std::uint64_t generations = 0;  // evaluator calls
  std::uint64_t slots = 0;
  std::uint64_t slots_ok = 0;
  std::uint64_t slots_failed = 0;
  std::vector<double> batch_ms;

  // Worker::evaluate_batch (dispatch).
  std::int64_t dispatch_ns = 0;
  std::int64_t dispatch_covered_ns = 0;  // union of item intervals inside it
  std::int64_t items_outside_ns = 0;     // union of item intervals outside every dispatch
  std::uint64_t items_dispatched = 0;

  // Worker::evaluate on the inner worker (one per evaluated item).
  std::int64_t item_ns = 0;
  std::vector<double> item_ms;
  std::uint64_t items_evaluated = 0;
  std::uint64_t items_infeasible = 0;
  std::uint64_t items_trained = 0;
  std::uint64_t flops_per_sample_sum = 0;  // over trained items

  // Fleet cache.
  std::int64_t cache_lookup_ns = 0;
  std::int64_t cache_store_ns = 0;
  std::uint64_t cache_lookups = 0;  // slots looked up
  std::uint64_t cache_hits = 0;

  // Checkpoint sink.
  std::int64_t checkpoint_ns = 0;
  std::uint64_t checkpoint_writes = 0;
  std::uint64_t checkpoint_bytes = 0;

  LayerTotals& operator+=(const LayerTotals& o) {
    search_ns += o.search_ns;
    run_ns += o.run_ns;
    models_evaluated += o.models_evaluated;
    duplicates_skipped += o.duplicates_skipped;
    evaluator_ns += o.evaluator_ns;
    generations += o.generations;
    slots += o.slots;
    slots_ok += o.slots_ok;
    slots_failed += o.slots_failed;
    batch_ms.insert(batch_ms.end(), o.batch_ms.begin(), o.batch_ms.end());
    dispatch_ns += o.dispatch_ns;
    dispatch_covered_ns += o.dispatch_covered_ns;
    items_outside_ns += o.items_outside_ns;
    items_dispatched += o.items_dispatched;
    item_ns += o.item_ns;
    item_ms.insert(item_ms.end(), o.item_ms.begin(), o.item_ms.end());
    items_evaluated += o.items_evaluated;
    items_infeasible += o.items_infeasible;
    items_trained += o.items_trained;
    flops_per_sample_sum += o.flops_per_sample_sum;
    cache_lookup_ns += o.cache_lookup_ns;
    cache_store_ns += o.cache_store_ns;
    cache_lookups += o.cache_lookups;
    cache_hits += o.cache_hits;
    checkpoint_ns += o.checkpoint_ns;
    checkpoint_writes += o.checkpoint_writes;
    checkpoint_bytes += o.checkpoint_bytes;
    return *this;
  }
};

/// Length of the union of `intervals`, clipped to [lo, hi].
inline std::int64_t union_length(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
                                 std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t length = 0;
  std::int64_t reach = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, reach);
    b = std::min(b, hi);
    if (b > a) {
      length += b - a;
      reach = b;
    }
  }
  return length;
}

class Ledger {
 public:
  explicit Ledger(bool timed) : timed_(timed) {}

  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  bool timed() const { return timed_; }
  void set_timed(bool timed) { timed_ = timed; }

  /// Id stamped on every span of the current search.
  void set_search_id(std::uint64_t id) { search_id_ = id; }

  /// Move the accumulated totals out and start from zero.
  LayerTotals take() {
    LayerTotals out = std::move(totals_);
    totals_ = LayerTotals{};
    out.items_evaluated = items_evaluated_.exchange(0);
    out.items_infeasible = items_infeasible_.exchange(0);
    out.items_trained = items_trained_.exchange(0);
    out.flops_per_sample_sum = flops_per_sample_sum_.exchange(0);
    std::lock_guard<std::mutex> lock(items_mutex_);
    out.item_ns = item_ns_;
    out.item_ms = std::move(item_ms_);
    item_ns_ = 0;
    item_ms_.clear();
    // Items no dispatch has claimed lie outside every dispatch.
    out.items_outside_ns = totals_outside_ns_ + union_length(intervals_, INT64_MIN, INT64_MAX);
    totals_outside_ns_ = 0;
    intervals_.clear();
    return out;
  }

  /// Totals written by the single thread that runs searches (the search loop,
  /// the engine's run() thread, the pipeline).
  LayerTotals& totals() { return totals_; }

  /// One inner-worker evaluation (any thread).  `start`/`end` are only
  /// meaningful in timed mode.
  void record_item(const evo::EvalResult& result, std::int64_t start, std::int64_t end) {
    items_evaluated_.fetch_add(1, std::memory_order_relaxed);
    if (!result.feasible) items_infeasible_.fetch_add(1, std::memory_order_relaxed);
    if (result.flops_per_sample > 0.0) {
      items_trained_.fetch_add(1, std::memory_order_relaxed);
      flops_per_sample_sum_.fetch_add(static_cast<std::uint64_t>(result.flops_per_sample),
                                      std::memory_order_relaxed);
    }
    if (!timed_) return;
    {
      std::lock_guard<std::mutex> lock(items_mutex_);
      item_ns_ += end - start;
      item_ms_.push_back(static_cast<double>(end - start) * 1e-6);
      intervals_.emplace_back(start, end);
    }
    span("nn", "worker.evaluate", start, end);
  }

  /// Union of the item intervals recorded since the last call, clipped to
  /// the dispatch [start, end]; clears them.  What lies outside the dispatch
  /// is kept as items_outside_ns.
  std::int64_t take_covered(std::int64_t start, std::int64_t end) {
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
    {
      std::lock_guard<std::mutex> lock(items_mutex_);
      intervals.swap(intervals_);
    }
    const std::int64_t covered = union_length(intervals, start, end);
    totals_outside_ns_ += union_length(intervals, INT64_MIN, INT64_MAX) - covered;
    return covered;
  }

  /// Emit a trace span from this ledger's clock (no-op unless timed and a
  /// trace file is open).  The search id rides in the span name.
  void span(const char* layer, const char* call, std::int64_t start, std::int64_t end) const {
    if (!timed_ || !util::trace_enabled()) return;
    util::trace_complete(layer, std::string(call) + " search=" + std::to_string(search_id_),
                         trace_us(start), trace_us(end));
  }

 private:
  // Map a steady_clock nanosecond stamp onto util::monotonic_micros().
  std::uint64_t trace_us(std::int64_t ns) const {
    const std::int64_t us = ns / 1000 + trace_offset_us_;
    return us < 0 ? 0 : static_cast<std::uint64_t>(us);
  }

  bool timed_;
  std::uint64_t search_id_ = 0;
  const std::int64_t trace_offset_us_ =
      static_cast<std::int64_t>(util::monotonic_micros()) - now_ns() / 1000;
  LayerTotals totals_;
  std::atomic<std::uint64_t> items_evaluated_{0};
  std::atomic<std::uint64_t> items_infeasible_{0};
  std::atomic<std::uint64_t> items_trained_{0};
  std::atomic<std::uint64_t> flops_per_sample_sum_{0};
  std::mutex items_mutex_;
  std::int64_t item_ns_ = 0;
  std::vector<double> item_ms_;
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals_;
  std::int64_t totals_outside_ns_ = 0;  // written by the search thread only
};

/// Times the fleet cache client's lookups and stores (net layer).
class TimedFleetCache final : public core::FleetEvalCache {
 public:
  TimedFleetCache(const core::FleetEvalCache& inner, Ledger& ledger)
      : inner_(inner), ledger_(ledger) {}

  void fleet_lookup(const std::vector<evo::Genome>& genomes,
                    std::vector<evo::EvalOutcome>& outcomes) const override {
    const std::int64_t start = ledger_.timed() ? now_ns() : 0;
    inner_.fleet_lookup(genomes, outcomes);
    LayerTotals& totals = ledger_.totals();
    if (ledger_.timed()) {
      const std::int64_t end = now_ns();
      totals.cache_lookup_ns += end - start;
      ledger_.span("net", "fleet_cache.lookup", start, end);
    }
    totals.cache_lookups += genomes.size();
    for (const evo::EvalOutcome& outcome : outcomes) totals.cache_hits += outcome.ok ? 1 : 0;
  }

  void fleet_store(const std::vector<evo::Genome>& genomes,
                   const std::vector<evo::EvalOutcome>& outcomes) const override {
    const std::int64_t start = ledger_.timed() ? now_ns() : 0;
    inner_.fleet_store(genomes, outcomes);
    if (ledger_.timed()) {
      const std::int64_t end = now_ns();
      ledger_.totals().cache_store_ns += end - start;
      ledger_.span("net", "fleet_cache.store", start, end);
    }
  }

 private:
  const core::FleetEvalCache& inner_;
  Ledger& ledger_;
};

/// Decorates a worker.  evaluate() times the inner worker (the leaf of the
/// call tree).  evaluate_batch() times the dispatch: with `forward_batches`
/// it hands the chunk to the inner worker's own evaluate_batch (a
/// RemoteWorker shipping it over the wire); without, it runs the default
/// pool fan-out, which calls back into this evaluate() per item.
class TimedWorker final : public core::Worker {
 public:
  TimedWorker(const core::Worker& inner, Ledger& ledger, bool forward_batches)
      : inner_(inner), ledger_(ledger), forward_batches_(forward_batches) {
    if (const core::FleetEvalCache* cache = inner.fleet_cache()) cache_.emplace(*cache, ledger);
  }

  std::string name() const override { return inner_.name(); }

  evo::EvalResult evaluate(const evo::Genome& genome) const override {
    const std::int64_t start = ledger_.timed() ? now_ns() : 0;
    evo::EvalResult result = inner_.evaluate(genome);
    ledger_.record_item(result, start, ledger_.timed() ? now_ns() : 0);
    return result;
  }

  std::vector<evo::EvalOutcome> evaluate_batch(const std::vector<evo::Genome>& genomes,
                                               util::ThreadPool& pool) const override {
    const std::int64_t start = ledger_.timed() ? now_ns() : 0;
    std::vector<evo::EvalOutcome> outcomes = forward_batches_
                                                 ? inner_.evaluate_batch(genomes, pool)
                                                 : core::Worker::evaluate_batch(genomes, pool);
    LayerTotals& totals = ledger_.totals();
    if (ledger_.timed()) {
      const std::int64_t end = now_ns();
      totals.dispatch_ns += end - start;
      totals.dispatch_covered_ns += ledger_.take_covered(start, end);
      ledger_.span(forward_batches_ ? "net" : "core", "worker.evaluate_batch", start, end);
    }
    totals.items_dispatched += genomes.size();
    return outcomes;
  }

  const core::FleetEvalCache* fleet_cache() const override {
    return cache_ ? &*cache_ : nullptr;
  }

 private:
  const core::Worker& inner_;
  Ledger& ledger_;
  bool forward_batches_;
  std::optional<TimedFleetCache> cache_;
};

/// Wraps the search's BatchEvaluator (core::make_search_evaluator).
inline evo::EvolutionEngine::BatchEvaluator timed_evaluator(
    evo::EvolutionEngine::BatchEvaluator inner, Ledger& ledger) {
  return [inner = std::move(inner), &ledger](const std::vector<evo::Genome>& genomes,
                                             util::ThreadPool& pool) {
    const std::int64_t start = ledger.timed() ? now_ns() : 0;
    std::vector<evo::EvalOutcome> outcomes = inner(genomes, pool);
    LayerTotals& totals = ledger.totals();
    if (ledger.timed()) {
      const std::int64_t end = now_ns();
      totals.evaluator_ns += end - start;
      totals.batch_ms.push_back(static_cast<double>(end - start) * 1e-6);
      ledger.span("core", "pipeline.evaluate", start, end);
    }
    ++totals.generations;
    totals.slots += genomes.size();
    for (const evo::EvalOutcome& outcome : outcomes) {
      if (outcome.ok) {
        ++totals.slots_ok;
      } else {
        ++totals.slots_failed;
      }
    }
    return outcomes;
  };
}

/// Wraps a CheckpointWriter as the engine's checkpoint sink.  In timed mode
/// the persisted file is stat()ed after the write to count its bytes
/// (outside the timed interval).
inline evo::EvolutionEngine::CheckpointSink timed_checkpoint(core::CheckpointWriter& writer,
                                                            std::string path, Ledger& ledger) {
  return [&writer, path = std::move(path), &ledger](const evo::EngineSnapshot& snapshot) {
    const std::int64_t start = ledger.timed() ? now_ns() : 0;
    writer.write(snapshot);
    LayerTotals& totals = ledger.totals();
    ++totals.checkpoint_writes;
    if (!ledger.timed()) return;
    const std::int64_t end = now_ns();
    totals.checkpoint_ns += end - start;
    ledger.span("core", "checkpoint.write", start, end);
    struct stat info {};
    if (::stat(path.c_str(), &info) == 0) {
      totals.checkpoint_bytes += static_cast<std::uint64_t>(info.st_size);
    }
  };
}

}  // namespace ecad::e2ebench
