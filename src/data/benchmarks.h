// The six paper benchmarks (§IV): MNIST, Fashion-MNIST, Credit-g, HAR,
// Phishing, Bioresponse — as shape-faithful synthetic surrogates plus the
// paper's published reference numbers for side-by-side reporting.
//
// Surrogate sizing: feature and class dimensions match the real datasets
// exactly; sample counts for the two image sets are scaled to 1/10 so the
// full experiment suite runs on one machine (pass `sample_scale` > 1 to
// enlarge).  data/synthetic.h explains why surrogates stand in for the
// real datasets and how they are generated.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "data/splits.h"
#include "data/synthetic.h"

namespace ecad::data {

enum class Benchmark { CreditG, Har, Phishing, Bioresponse, Mnist, FashionMnist };

/// Published numbers the paper compares against (Tables I-III).
struct PaperRecord {
  double top_acc_any = 0.0;      // best published, any method
  std::string top_method;        // that method's name
  double top_acc_mlp = 0.0;      // best published MLP
  double ecad_mlp = 0.0;         // the paper's ECAD MLP result
  // Table III run-time statistics.
  std::size_t models_evaluated = 0;
  double avg_eval_seconds = 0.0;
  double total_eval_seconds = 0.0;
};

struct BenchmarkInfo {
  Benchmark id;
  std::string name;             // paper-style lowercase name
  std::size_t real_samples;     // cardinality of the real dataset
  std::size_t num_features;
  std::size_t num_classes;
  bool presplit;                // true: 1-fold train/test (MNIST family)
  PaperRecord paper;
};

const std::vector<Benchmark>& all_benchmarks();

const BenchmarkInfo& benchmark_info(Benchmark benchmark);

/// Lookup by paper-style name ("credit-g", "har", ...). Throws
/// std::invalid_argument for unknown names.
Benchmark benchmark_from_name(std::string_view name);

/// The synthetic spec used for a benchmark's surrogate; `sample_scale`
/// multiplies the surrogate's default sample count.
SyntheticSpec benchmark_spec(Benchmark benchmark, double sample_scale = 1.0);

/// Generate the surrogate pool (for k-fold protocols). Deterministic in `seed`.
Dataset load_benchmark(Benchmark benchmark, double sample_scale = 1.0, std::uint64_t seed = 1);

/// Generate a standardized, stratified train/test split (1-fold protocol).
TrainTestSplit load_benchmark_split(Benchmark benchmark, double sample_scale = 1.0,
                                    std::uint64_t seed = 1, double test_fraction = 0.2);

}  // namespace ecad::data
