// End-to-end search benchmark with a per-layer ledger.
//
// Runs whole seeded co-design searches in one process through the public
// API — an evo::EvolutionEngine fed by core::make_search_evaluator, the
// same composition core::Master::search uses, and net::WorkerServer +
// net::RemoteWorker for the fleet — and reports end-to-end metrics
// (untraced) or per-layer metrics (traced) for one workload:
//
//   engine_analytic    in-process analytic worker: evo + core overhead only
//   codesign_train     in-process hardware-database worker: nn training,
//                      linalg GEMM, hwmodel feasibility
//   fleet_cached       codesign_train's searches through two loopback
//                      WorkerServers with the cache tier behind one
//                      RemoteWorker; every seed searched cold, then warm
//   fleet_analytic     the same fleet with the analytic worker: wire and
//                      cache traffic only
//   engine_checkpoint  engine_analytic persisting every generation boundary
//
// Usage:
//   ecad_e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//                  [--scratch DIR]
//
// A run sets up, discards one warm-up search, computes reference records
// outside the timed region, then repeats a fixed round of searches (derived
// from --seed) until --seconds have elapsed, and checks every search's
// output.  The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// See README.md in this directory for the metric definitions.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "core/master.h"
#include "daemon_common.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "hypervolume.h"
#include "ledger.h"
#include "net/fleet_cache.h"
#include "net/remote_worker.h"
#include "net/worker_server.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace {

using namespace ecad;
using e2ebench::Ledger;
using e2ebench::LayerTotals;
using e2ebench::now_ns;
using e2ebench::TimedWorker;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  std::string worker;         // "analytic" | "hwdb"
  bool fleet = false;         // evaluate through two loopback WorkerServers
  bool checkpoint = false;    // persist every generation boundary
  std::size_t searches = 0;   // searches per round (fleet: seeds, each cold + warm)
  std::size_t budget = 0;     // EvolutionConfig::max_evaluations
  std::size_t setups = 0;     // set-up repetitions per round (fleet: per seed)
};

// Budgets stay below the point where dedup attempts run out, so every search
// completes exactly its budget.  Two pool threads everywhere; the fleets add
// one evaluation thread per WorkerServer (four busy threads at most).
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"engine_analytic", "analytic", false, false, 8, 4096, 25},
      {"codesign_train", "hwdb", false, false, 64, 128, 3},
      {"fleet_cached", "hwdb", true, false, 32, 128, 1},
      {"fleet_analytic", "analytic", true, false, 4, 2048, 1},
      {"engine_checkpoint", "analytic", false, true, 4, 512, 25},
  };
  return specs;
}

constexpr std::size_t kThreads = 2;
constexpr const char* kFitness = "accuracy_x_throughput";

// The daemons' worker spec (tools::WorkerConfig): the default synthetic data
// set, 600 x 16 samples, 3 classes, a 75/25 split.  The hardware-database
// worker trains one epoch instead of the default five, so a round holds
// enough candidates that its cost does not hinge on a few networks.
tools::WorkerConfig worker_config(const WorkloadSpec& spec) {
  tools::WorkerConfig config;
  config.kind = spec.worker;
  if (spec.worker == "hwdb") config.train_epochs = 1;
  return config;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Seed of search `index` of a run seeded with `seed`; index == searches is
/// the warm-up search, never part of a timed round.
std::uint64_t search_seed(std::uint64_t seed, std::size_t index) {
  return splitmix64(splitmix64(seed) + index);
}

core::SearchRequest make_request(const WorkloadSpec& spec, std::uint64_t seed) {
  core::SearchRequest request;
  request.evolution.population_size = 16;
  request.evolution.batch_size = 4;
  request.evolution.max_evaluations = spec.budget;
  if (spec.worker == "hwdb") {
    // Co-design widths stop at 64: the 128-512 choices make a round's wall
    // time depend on which few large networks a seed happens to breed.
    request.space.width_choices = {4, 8, 16, 32, 64};
    // Short searches (a random population of 64, then one bred generation
    // of 64): a round's training cost then hinges less on which networks a
    // seed's evolution converges to.  A batch of 64 also means a fleet opens
    // one set of cache connections per 64 evaluations, not per 4.
    request.evolution.population_size = 64;
    request.evolution.batch_size = 64;
  }
  request.fitness = kFitness;
  request.seed = seed;
  request.threads = kThreads;
  return request;
}

double seconds_since(std::int64_t start) { return static_cast<double>(now_ns() - start) * 1e-9; }

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile (q in [0, 1]).
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// ---------------------------------------------------------------------------
// Set-up: the evaluation backend of a workload
// ---------------------------------------------------------------------------

/// Dataset, split, inner worker and its decorator.  For the fleet this is
/// the worker every WorkerServer serves.
struct Backend {
  tools::WorkerBundle bundle;
  std::unique_ptr<TimedWorker> timed;
  double data_setup_s = 0.0;
};

std::unique_ptr<Backend> make_backend(const WorkloadSpec& spec, Ledger& ledger) {
  auto backend = std::make_unique<Backend>();
  const std::int64_t start = now_ns();
  backend->bundle = tools::make_worker(worker_config(spec));
  backend->data_setup_s = spec.worker == "hwdb" ? seconds_since(start) : 0.0;
  backend->timed = std::make_unique<TimedWorker>(*backend->bundle.worker, ledger,
                                                 /*forward_batches=*/false);
  return backend;
}

/// Two in-process daemons (one evaluation thread each, cache tier on and
/// empty) behind one RemoteWorker with the fleet cache client enabled.
class Fleet {
 public:
  Fleet(const core::Worker& served, const tools::WorkerConfig& config, Ledger& ledger) {
    for (int i = 0; i < 2; ++i) {
      net::WorkerServerOptions options;
      options.threads = 1;
      options.cache_bytes = std::size_t{64} << 20;
      servers_.push_back(std::make_unique<net::WorkerServer>(served, options));
      servers_.back()->start();
    }
    net::RemoteWorkerOptions options;
    // One shard stream per endpoint.  With the default two, the four streams
    // queue FIFO on the search's two pool threads, so both of endpoint 0's
    // streams run (and drain the shared queue) before endpoint 1's first
    // shard is sent: the two daemons would take turns instead of working
    // at the same time.
    options.streams_per_endpoint = 1;
    for (const auto& server : servers_) options.endpoints.push_back({server->host(), server->port()});
    // The cache identity ecad_searchd derives from the same worker spec.
    const net::EvalConfigId id{config.kind,          config.data_seed,    config.data_samples,
                               config.data_features, config.data_classes, config.train_epochs,
                               config.eval_seed};
    options.cache_config = id.to_string();
    remote_ = std::make_unique<net::RemoteWorker>(std::move(options));
    if (remote_->ping_all() != servers_.size()) {
      throw std::runtime_error("fleet: not every loopback WorkerServer answered a ping");
    }
    worker_ = std::make_unique<TimedWorker>(*remote_, ledger, /*forward_batches=*/true);
  }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  ~Fleet() {
    worker_.reset();
    remote_.reset();
    // Each stop() joins an event loop that polls every 50 ms; stop both at once.
    std::vector<std::thread> stoppers;
    for (auto& server : servers_) stoppers.emplace_back([&server] { server->stop(); });
    for (std::thread& stopper : stoppers) stopper.join();
  }

  const core::Worker& worker() const { return *worker_; }

  std::size_t requests_served() const {
    std::size_t served = 0;
    for (const auto& server : servers_) served += server->requests_served();
    return served;
  }

 private:
  std::vector<std::unique_ptr<net::WorkerServer>> servers_;
  std::unique_ptr<net::RemoteWorker> remote_;
  std::unique_ptr<TimedWorker> worker_;
};

// ---------------------------------------------------------------------------
// One search
// ---------------------------------------------------------------------------

struct SearchRun {
  double wall_s = 0.0;
  bool ok = false;
  std::string error;
  evo::EvolutionResult result;
};

/// One search, composed exactly as core::Master::search composes it (engine
/// + make_search_evaluator + per-search pool, checkpoint writer when asked),
/// with the decorators of ledger.h spliced in.
SearchRun run_search(core::Master& master, const core::Worker& worker,
                     const core::SearchRequest& request, const std::string& checkpoint_dir,
                     Ledger& ledger) {
  static std::uint64_t next_search_id = 1;
  ledger.set_search_id(next_search_id++);
  SearchRun run;
  LayerTotals& totals = ledger.totals();
  const std::int64_t start = now_ns();
  try {
    evo::EvolutionEngine engine(request.space, request.evolution,
                                e2ebench::timed_evaluator(core::make_search_evaluator(worker), ledger),
                                master.registry().get(request.fitness));
    std::unique_ptr<core::CheckpointWriter> writer;
    if (!checkpoint_dir.empty()) {
      core::ensure_checkpoint_dir(checkpoint_dir);
      writer = std::make_unique<core::CheckpointWriter>(checkpoint_dir, 1, request, 1);
      engine.set_checkpoint_sink(
          e2ebench::timed_checkpoint(*writer, core::checkpoint_path(checkpoint_dir, 1), ledger));
    }
    util::Rng rng(request.seed);
    util::ThreadPool pool(request.threads);
    const std::int64_t run_start = ledger.timed() ? now_ns() : 0;
    run.result = engine.run(rng, pool);
    if (ledger.timed()) {
      const std::int64_t run_end = now_ns();
      totals.run_ns += run_end - run_start;
      ledger.span("evo", "engine.run", run_start, run_end);
    }
    if (writer) writer->mark_done();
    run.ok = true;
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  const std::int64_t end = now_ns();
  run.wall_s = static_cast<double>(end - start) * 1e-9;
  if (ledger.timed()) {
    totals.search_ns += end - start;
    ledger.span("core", "search", start, end);
  }
  totals.models_evaluated += run.result.stats.models_evaluated;
  totals.duplicates_skipped += run.result.stats.duplicates_skipped;
  return run;
}

std::string record_of(const evo::EvolutionResult& result) {
  return tools::format_search_record(result.history, result.best, result.stats.models_evaluated,
                                     result.stats.duplicates_skipped);
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

struct Checks {
  std::uint64_t run = 0;
  std::uint64_t failed = 0;

  void expect(bool ok, const std::string& what) {
    ++run;
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
};

/// Registry counters read for the cross-check: sum over every labeled series.
double counter_sum(const std::string& base) {
  double sum = 0.0;
  for (const util::MetricSnapshot& metric : util::metrics().snapshot(base)) {
    if (metric.name == base || metric.name.rfind(base + "{", 0) == 0) sum += metric.value;
  }
  return sum;
}

struct RegistryReading {
  double evals_completed = 0.0;
  double items_dispatched = 0.0;
  double fleet_cache_hits = 0.0;

  static RegistryReading now() {
    return {counter_sum("core.evals_completed_total"), counter_sum("net.items_dispatched_total"),
            counter_sum("net.fleet_cache_hits_total")};
  }
};

void cross_check(const char* what, double registry, double own) {
  if (registry == own) return;
  std::fprintf(stderr, "COUNTER DISAGREEMENT: %s registry=%.0f benchmark=%.0f\n", what, registry,
               own);
}

// ---------------------------------------------------------------------------
// Rounds
// ---------------------------------------------------------------------------

/// One round's measurements (the totals are the ledger's for that round).
struct Round {
  double wall_s = 0.0;           // local: the round's clock; fleet: sum of search_s
  double clock_s = 0.0;          // the round's own clock, minus any set-up in it
  std::vector<double> search_s;  // per search (fleet: cold + warm of one seed)
  std::vector<double> hypervolumes;
  LayerTotals totals;
};

struct Runner {
  Runner(const WorkloadSpec& spec_in, std::uint64_t seed_in, std::string scratch_in)
      : spec(spec_in), seed(seed_in), scratch(std::move(scratch_in)) {}

  const WorkloadSpec& spec;
  std::uint64_t seed;
  std::string scratch;
  Ledger ledger{false};
  std::unique_ptr<core::Master> master;
  std::unique_ptr<Backend> backend;
  std::unique_ptr<Fleet> fleet;  // serves *backend; destroyed before it
  Checks checks;
  std::vector<double> setup_s;
  std::vector<double> data_setup_s;
  std::vector<std::string> references;  // per search index
  std::uint64_t fleet_served = 0;       // WorkerServer::requests_served(), timed rounds
  std::uint64_t fleet_dispatched = 0;   // items dispatched to those fleets

  std::string checkpoint_dir() const {
    return spec.checkpoint ? scratch + "/checkpoints" : std::string();
  }

  /// The master (fitness registry), the evaluation backend (dataset, split,
  /// worker) and, for a fleet, the two WorkerServers and the connected
  /// RemoteWorker serving that backend.  Built `spec.setups` times; the last
  /// one is kept.  Called before the warm-up, then before every round (local
  /// workloads) or every seed (fleets, whose cache must start empty), so the
  /// set-up samples span the run.
  void set_up() {
    for (std::size_t i = 0; i < std::max<std::size_t>(spec.setups, 1); ++i) {
      fleet.reset();  // tear-down is not set-up
      backend.reset();
      master.reset();
      const std::int64_t start = now_ns();
      master = std::make_unique<core::Master>();
      backend = make_backend(spec, ledger);
      if (spec.fleet) fleet = std::make_unique<Fleet>(*backend->timed, worker_config(spec), ledger);
      setup_s.push_back(seconds_since(start));
      data_setup_s.push_back(backend->data_setup_s);
    }
  }

  /// The worker a search evaluates through.
  const core::Worker& search_worker() const {
    return fleet ? fleet->worker() : static_cast<const core::Worker&>(*backend->timed);
  }

  /// Local reference records: core::Master::search on the bare inner
  /// worker, no decorators, no fleet, no checkpoint.  Skipped for
  /// codesign_train, where it would cost a whole round of training; its
  /// rounds are checked against each other instead.
  void compute_references() {
    if (spec.worker != "analytic" && !spec.fleet) return;
    for (std::size_t i = 0; i < spec.searches; ++i) {
      const evo::EvolutionResult result =
          master->search(*backend->bundle.worker, make_request(spec, search_seed(seed, i)));
      references.push_back(record_of(result));
    }
  }

  void warm_up() {
    const core::SearchRequest request = make_request(spec, search_seed(seed, spec.searches));
    run_search(*master, search_worker(), request, checkpoint_dir(), ledger);
    if (spec.fleet) run_search(*master, search_worker(), request, "", ledger);
    ledger.take();
  }

  void check_search(const SearchRun& run, std::size_t index, const char* pass,
                    const std::string& first_record) {
    const std::string label = spec.name + " search " + std::to_string(index) + pass;
    checks.expect(run.ok, label + " completed (" + run.error + ")");
    if (!run.ok) return;
    checks.expect(run.result.stats.models_evaluated == spec.budget,
                  label + " evaluated " + std::to_string(run.result.stats.models_evaluated) +
                      " of a budget of " + std::to_string(spec.budget));
    const std::string record = record_of(run.result);
    if (!references.empty()) {
      checks.expect(record == references[index],
                    label + " record equals the local Master::search record");
    }
    if (!first_record.empty()) {
      checks.expect(record == first_record, label + " record equals the first round's record");
    }
    if (spec.worker == "hwdb") {
      bool in_range = true;
      for (const evo::Candidate& candidate : run.result.history) {
        in_range = in_range && candidate.result.accuracy >= 0.0 && candidate.result.accuracy <= 1.0;
      }
      checks.expect(in_range, label + " accuracies lie in [0, 1]");
    }
  }

  Round run_round(std::vector<std::string>& first_records) {
    Round round;
    std::vector<SearchRun> runs;
    std::vector<SearchRun> warm_runs;
    std::int64_t start = now_ns();
    if (spec.fleet) {
      // A fresh fleet per seed, so every cold pass starts from an empty
      // cache.  Its set-up (and the previous fleet's tear-down) is left out
      // of both wall clocks.
      std::int64_t set_up_ns = 0;
      for (std::size_t i = 0; i < spec.searches; ++i) {
        const core::SearchRequest request = make_request(spec, search_seed(seed, i));
        const std::int64_t set_up_start = now_ns();
        set_up();
        set_up_ns += now_ns() - set_up_start;
        const std::uint64_t dispatched_before = ledger.totals().items_dispatched;
        runs.push_back(run_search(*master, search_worker(), request, "", ledger));
        warm_runs.push_back(run_search(*master, search_worker(), request, "", ledger));
        fleet_served += fleet->requests_served();
        fleet_dispatched += ledger.totals().items_dispatched - dispatched_before;
        round.search_s.push_back(runs.back().wall_s + warm_runs.back().wall_s);
        round.wall_s += round.search_s.back();
      }
      round.clock_s = static_cast<double>(now_ns() - start - set_up_ns) * 1e-9;
    } else {
      // The round's own clock is restarted after its set-up.
      set_up();
      start = now_ns();
      for (std::size_t i = 0; i < spec.searches; ++i) {
        runs.push_back(run_search(*master, search_worker(), make_request(spec, search_seed(seed, i)),
                                  checkpoint_dir(), ledger));
      }
      round.wall_s = seconds_since(start);
      round.clock_s = round.wall_s;
      for (const SearchRun& run : runs) round.search_s.push_back(run.wall_s);
    }
    round.totals = ledger.take();

    // Everything below is outside the timed region.
    const bool first_round = first_records.empty();
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const std::string first = first_round ? std::string() : first_records[i];
      check_search(runs[i], i, spec.fleet ? " (cold)" : "", first);
      if (spec.fleet) {
        check_search(warm_runs[i], i, " (warm)", first);
        checks.expect(runs[i].ok && warm_runs[i].ok &&
                          record_of(runs[i].result) == record_of(warm_runs[i].result),
                      spec.name + " search " + std::to_string(i) +
                          " warm record equals the cold record");
      }
      if (first_round) first_records.push_back(runs[i].ok ? record_of(runs[i].result) : "");
      round.hypervolumes.push_back(e2ebench::front_hypervolume(runs[i].result.history));
    }
    return round;
  }
};

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
  bool in_json = true;  // false: printed in the table only
};

double peak_rss_mb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double median_wall(const std::vector<Round>& rounds) {
  std::vector<double> walls;
  for (const Round& round : rounds) walls.push_back(round.wall_s);
  return median(walls);
}

std::vector<Metric> end_to_end_metrics(const Runner& runner, const std::vector<Round>& rounds) {
  std::vector<double> searches;
  double hypervolume = 0.0;
  std::size_t hv_count = 0;
  double slots_ok = 0.0;
  for (const Round& round : rounds) {
    searches.insert(searches.end(), round.search_s.begin(), round.search_s.end());
    for (double hv : round.hypervolumes) {
      hypervolume += hv;
      ++hv_count;
    }
    slots_ok += static_cast<double>(round.totals.slots_ok);
  }
  const double wall = median_wall(rounds);
  const double slots_per_round = slots_ok / static_cast<double>(rounds.size());
  return {
      {"setup_s", median(runner.setup_s), "s",
       "median of " + std::to_string(runner.setup_s.size()) + " set-ups"},
      {"wall_s", wall, "s", "median round of " + std::to_string(rounds.size())},
      {"evals_per_s", slots_per_round / wall, "1/s",
       std::to_string(static_cast<std::uint64_t>(slots_per_round)) + " slots settled per round"},
      {"search_s_p50", median(searches), "s", "n=" + std::to_string(searches.size())},
      {"front_hypervolume", hv_count == 0 ? 0.0 : hypervolume / static_cast<double>(hv_count),
       "acc.decade", "mean over " + std::to_string(hv_count) + " searches"},
      {"peak_rss_mb", peak_rss_mb(), "MB", ""},
  };
}

std::vector<Metric> per_layer_metrics(const Runner& runner, const std::vector<Round>& untraced,
                                      const std::vector<Round>& traced) {
  // Per-round means over the traced rounds.
  LayerTotals t;
  double traced_wall = 0.0;
  double traced_clock = 0.0;
  for (const Round& round : traced) {
    t += round.totals;
    traced_wall += round.wall_s;
    traced_clock += round.clock_s;
  }
  const double n = static_cast<double>(traced.size());
  const auto s = [n](std::int64_t ns) { return static_cast<double>(ns) * 1e-9 / n; };
  const auto c = [n](std::uint64_t count) { return static_cast<double>(count) / n; };
  const auto ratio = [](double num, double den) { return den == 0.0 ? 0.0 : num / den; };
  const bool remote = runner.spec.fleet;

  const double wall = traced_wall / n;
  const double clock = traced_clock / n;
  const double engine_self = s(t.run_ns - t.evaluator_ns - t.checkpoint_ns);
  const double pipeline_self = s(t.evaluator_ns - t.dispatch_ns - t.cache_lookup_ns -
                                 t.cache_store_ns);
  const double dispatch_self = s(t.dispatch_ns - t.dispatch_covered_ns);
  const double self_core = pipeline_self + s(t.search_ns - t.run_ns) + s(t.checkpoint_ns) +
                           (remote ? 0.0 : dispatch_self);
  const double self_net =
      (remote ? dispatch_self : 0.0) + s(t.cache_lookup_ns) + s(t.cache_store_ns);
  const double self_nn = s(t.dispatch_covered_ns);
  const double self_sum = engine_self + self_core + self_net + self_nn;

  // Training runs every epoch over the whole train split (no validation set,
  // so no early stop).
  const data::TrainTestSplit* split = runner.backend->bundle.split.get();
  const double train_size = split ? static_cast<double>(split->train.num_samples()) : 0.0;
  const double test_size = split ? static_cast<double>(split->test.num_samples()) : 0.0;
  const double samples_per_training =
      train_size * static_cast<double>(worker_config(runner.spec).train_epochs);
  // Forward + backward (2x forward) over every training sample and epoch,
  // plus one forward pass over the test set.
  const double flops = static_cast<double>(t.flops_per_sample_sum) *
                       (3.0 * samples_per_training + test_size);
  const double gflop = flops * 1e-9 / n;
  const double eval_s = s(t.item_ns);
  const double dispatched = c(t.items_dispatched);
  const double untraced_wall = median_wall(untraced);

  std::vector<Metric> metrics = {
      {"evo.engine_self_s", engine_self, "s", "run() minus evaluator and checkpoint sink"},
      {"evo.generations", c(t.generations), "count", "evaluator calls"},
      {"evo.evals", c(t.models_evaluated), "count", ""},
      {"evo.duplicates_skipped", c(t.duplicates_skipped), "count", ""},
      {"evo.dedup_ratio",
       ratio(static_cast<double>(t.duplicates_skipped),
             static_cast<double>(t.duplicates_skipped + t.models_evaluated)),
       "ratio", "skipped offspring / offspring bred"},
      {"core.pipeline_s", s(t.evaluator_ns), "s", ""},
      {"core.pipeline_self_s", pipeline_self, "s", "dedup + fleet-cache stage"},
      {"core.dispatch_s", s(t.dispatch_ns), "s", "Worker::evaluate_batch"},
      {"core.batch_ms_p50", percentile(t.batch_ms, 0.50), "ms",
       "n=" + std::to_string(t.batch_ms.size())},
      {"core.batch_ms_p99", percentile(t.batch_ms, 0.99), "ms", ""},
      {"net.dispatch_s", remote ? s(t.dispatch_ns) : 0.0, "s", ""},
      {"net.dispatch_us_per_item", remote ? ratio(s(t.dispatch_ns) * 1e6, dispatched) : 0.0, "us",
       ""},
      {"net.items_dispatched", remote ? dispatched : 0.0, "count", ""},
      {"net.server_eval_s", remote ? self_nn : 0.0, "s", "covered by server-side evaluations"},
      {"net.cache_lookup_s", s(t.cache_lookup_ns), "s", ""},
      {"net.cache_store_s", s(t.cache_store_ns), "s", ""},
      {"net.cache_lookups", c(t.cache_lookups), "count", ""},
      {"net.cache_hits", c(t.cache_hits), "count", ""},
      {"net.cache_hit_ratio",
       ratio(static_cast<double>(t.cache_hits), static_cast<double>(t.cache_lookups)), "ratio", ""},
      {"nn.eval_s", eval_s, "s", "summed over threads"},
      {"nn.eval_ms_p50", percentile(t.item_ms, 0.50), "ms",
       "n=" + std::to_string(t.item_ms.size())},
      {"nn.eval_ms_p99", percentile(t.item_ms, 0.99), "ms", ""},
      {"nn.train_samples", c(t.items_trained) * samples_per_training, "count", ""},
      {"linalg.gflop_computed", gflop, "GFLOP", "computed from flops_per_sample"},
      {"linalg.gflops_per_s", ratio(gflop, eval_s), "GFLOP/s", "per busy thread"},
      {"hwmodel.infeasible_ratio",
       ratio(static_cast<double>(t.items_infeasible), static_cast<double>(t.items_evaluated)),
       "ratio", ""},
      {"data.setup_s", median(runner.data_setup_s), "s", "median dataset + split build"},
      {"self.evo_s", engine_self, "s", ""},
      {"self.core_s", self_core, "s", ""},
      {"self.net_s", self_net, "s", ""},
      {"self.nn_s", self_nn, "s", "inner worker evaluate(), union over threads"},
      {"self.unattributed_s", clock - self_sum, "s", "round clock no search covers"},
      {"trace.wall_s", wall, "s", "traced round, " + std::to_string(traced.size()) + " rounds"},
      {"trace.coverage", ratio(self_sum, clock), "ratio", "sum of self times / round clock"},
      {"trace.overhead_ratio", ratio(wall, untraced_wall), "ratio",
       "traced wall / untraced wall (" + std::to_string(untraced.size()) + " rounds)"},
  };
  // Only engine_checkpoint writes checkpoints; elsewhere these are all zero.
  if (runner.spec.checkpoint) {
    metrics.push_back({"core.checkpoint_s", s(t.checkpoint_ns), "s", ""});
    metrics.push_back({"core.checkpoint_writes", c(t.checkpoint_writes), "count", ""});
    metrics.push_back({"core.checkpoint_bytes", c(t.checkpoint_bytes), "bytes", ""});
  }
  return metrics;
}

/// The attribution checks of a traced round.  Self times are differences of
/// nested intervals, so their sum is the searches' wall by construction; what
/// can go wrong is the nesting.  Each derived self time must be >= 0 (a child
/// interval longer than its parent means a decorator times the wrong call),
/// and the inner worker's evaluations must fall inside a dispatch (work the
/// dispatch does not wait for would be charged to no layer).
void check_attribution(Checks& checks, const std::string& name, const Round& round) {
  const LayerTotals& t = round.totals;
  const auto expect_nonnegative = [&](std::int64_t ns, const char* what) {
    checks.expect(ns >= 0, name + ": " + what + " self time is " + std::to_string(ns) + " ns");
  };
  expect_nonnegative(t.run_ns - t.evaluator_ns - t.checkpoint_ns, "evo engine");
  expect_nonnegative(t.evaluator_ns - t.dispatch_ns - t.cache_lookup_ns - t.cache_store_ns,
                     "core pipeline");
  expect_nonnegative(t.dispatch_ns - t.dispatch_covered_ns, "dispatch");
  expect_nonnegative(t.search_ns - t.run_ns, "search set-up");
  checks.expect(static_cast<double>(t.items_outside_ns) <= 0.01 * static_cast<double>(t.item_ns),
                name + ": " + std::to_string(t.items_outside_ns) +
                    " ns of inner-worker evaluation fell outside every dispatch");
}

void print_report(const WorkloadSpec& spec, const std::vector<Metric>& metrics, bool correct,
                  std::uint64_t attempted, std::uint64_t failed) {
  std::printf("workload %s\n", spec.name.c_str());
  for (const Metric& metric : metrics) {
    std::printf("  %-26s %16.6g %-10s %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* separator = "";
  for (const Metric& metric : metrics) {
    if (!metric.in_json) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", separator,
                metric.name.c_str(), metric.value, metric.unit.c_str());
    separator = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(const tools::ArgParser& args) {
  const std::string name = args.get("workload", "");
  const auto spec_it = std::find_if(workloads().begin(), workloads().end(),
                                    [&name](const WorkloadSpec& w) { return w.name == name; });
  if (spec_it == workloads().end()) {
    std::fprintf(stderr, "unknown --workload '%s'\n", name.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *spec_it;
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = static_cast<double>(args.get_int("seconds", 10));
  const bool trace = args.get_int("trace", 0) != 0;
  const std::string scratch = args.get("scratch", ".bench_build/run");
  std::filesystem::create_directories(scratch);

  Runner runner(spec, seed, scratch);
  if (spec.checkpoint) std::filesystem::remove_all(runner.checkpoint_dir());
  runner.set_up();
  runner.warm_up();
  runner.compute_references();

  const RegistryReading before = RegistryReading::now();
  LayerTotals all;  // every timed round, for the counter cross-check and failures
  std::vector<std::string> first_records;
  std::vector<Round> untraced;
  std::vector<Round> traced;

  // Untraced rounds only (end-to-end metrics), or untraced and traced rounds
  // in turn, so that a drift of the host over the run moves both alike and
  // the tracing overhead compares like with like.  The trace file is open
  // during traced rounds only (the libraries' own spans are tracing cost
  // too); each traced round rewrites it, so it holds the last one.
  const std::string trace_path = scratch + "/trace_" + spec.name + ".json";
  const std::int64_t start = now_ns();
  while (untraced.size() < 2 || seconds_since(start) < seconds) {
    untraced.push_back(runner.run_round(first_records));
    all += untraced.back().totals;
    if (!trace) continue;
    util::trace_open(trace_path);
    runner.ledger.set_timed(true);
    traced.push_back(runner.run_round(first_records));
    runner.ledger.set_timed(false);
    util::trace_close();
    all += traced.back().totals;
    check_attribution(runner.checks, spec.name, traced.back());
  }
  if (trace) std::fprintf(stderr, "trace of the last traced round: %s\n", trace_path.c_str());

  const RegistryReading after = RegistryReading::now();
  cross_check("core.evals_completed_total", after.evals_completed - before.evals_completed,
              static_cast<double>(all.items_evaluated));
  if (spec.fleet) {
    cross_check("net.items_dispatched_total", after.items_dispatched - before.items_dispatched,
                static_cast<double>(all.items_dispatched));
    cross_check("WorkerServer::requests_served", static_cast<double>(runner.fleet_served),
                static_cast<double>(runner.fleet_dispatched));
    cross_check("net.fleet_cache_hits_total", after.fleet_cache_hits - before.fleet_cache_hits,
                static_cast<double>(all.cache_hits));
  }

  for (const std::vector<Round>* rounds : {&untraced, &traced}) {
    if (rounds->empty()) continue;
    std::fprintf(stderr, "%s rounds (s):", rounds == &untraced ? "untraced" : "traced");
    for (const Round& round : *rounds) std::fprintf(stderr, " %.4f", round.wall_s);
    std::fprintf(stderr, "\n");
  }
  // A traced run's table also shows the end-to-end metrics of its untraced
  // half; its JSON holds the per-layer metrics only.
  std::vector<Metric> metrics = end_to_end_metrics(runner, untraced);
  if (trace) {
    for (Metric& metric : metrics) metric.in_json = false;
    const std::vector<Metric> layers = per_layer_metrics(runner, untraced, traced);
    metrics.insert(metrics.end(), layers.begin(), layers.end());
  }
  for (const Metric& metric : metrics) {
    if (metric.name != "trace.coverage") continue;
    runner.checks.expect(std::fabs(metric.value - 1.0) <= 0.1,
                         "per-layer self times account for the round clock within a tenth");
  }
  const std::uint64_t failed = all.slots_failed + runner.checks.failed;
  const std::uint64_t attempted = std::max<std::uint64_t>(all.slots, 1);
  // Zero on a correct run, so it is no gated end-to-end metric: there the
  // JSON carries it as "failed" / "attempted".  It is a per-layer metric.
  metrics.push_back({"failed_ratio", static_cast<double>(failed) / static_cast<double>(attempted),
                     "ratio", "failed / attempted", trace});
  std::fprintf(stderr, "%s: %llu checks, %llu failed; %llu slots, %llu failed\n",
               spec.name.c_str(), static_cast<unsigned long long>(runner.checks.run),
               static_cast<unsigned long long>(runner.checks.failed),
               static_cast<unsigned long long>(all.slots),
               static_cast<unsigned long long>(all.slots_failed));
  print_report(spec, metrics, failed == 0, attempted, failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::set_log_level(util::LogLevel::Warn);
    return run(tools::ArgParser(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ecad_e2e_bench: %s\n", e.what());
    return 1;
  }
}
