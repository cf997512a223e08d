// Synthetic classification dataset generator.
//
// Substitution: the paper evaluates on MNIST, Fashion-MNIST, and four
// OpenML datasets; this reproduction builds and runs without network
// access, so it generates shape-faithful surrogates instead.  Each class
// is a mixture of Gaussian clusters in a low-dimensional latent space,
// projected into the observed feature space by a fixed random linear map,
// with observation noise and a label-noise rate that caps the achievable
// (Bayes-ish) accuracy near the paper's reported ceiling for that
// dataset.  The result: accuracy responds to network capacity the way a
// real tabular/vision dataset does — underfitting hurts, capacity
// saturates, the ceiling is below 1.0.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "util/rng.h"

namespace ecad::data {

struct SyntheticSpec {
  std::string name = "synthetic";
  std::size_t num_samples = 1000;
  std::size_t num_features = 20;
  std::size_t num_classes = 2;

  /// Intrinsic dimensionality of the class structure.
  std::size_t latent_dim = 8;

  /// Number of Gaussian clusters per class (multi-modal classes make the
  /// problem non-linearly-separable, so depth/width matter).
  std::size_t clusters_per_class = 2;

  /// Distance scale between cluster centers; larger = easier.
  double cluster_separation = 3.0;

  /// Within-cluster latent stddev.
  double within_cluster_stddev = 1.0;

  /// Additive observation noise in feature space.
  double feature_noise = 0.1;

  /// Probability a sample's label is flipped to a uniformly random *other*
  /// class; bounds top accuracy at roughly 1 - label_noise.
  double label_noise = 0.0;

  /// Relative class priors; empty = uniform.  Normalized internally.
  std::vector<double> class_priors;
};

/// Generate a dataset per `spec`. Deterministic given `rng` state.
/// Throws std::invalid_argument for degenerate specs (0 classes, 0 features,
/// priors size mismatch).
Dataset generate_synthetic(const SyntheticSpec& spec, util::Rng& rng);

}  // namespace ecad::data
