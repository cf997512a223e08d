#include "nn/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "util/rng.h"

namespace ecad::nn {
namespace {

TEST(Optimizer, NamesRoundTrip) {
  for (OptimizerKind kind : {OptimizerKind::Sgd, OptimizerKind::Momentum, OptimizerKind::Adam}) {
    EXPECT_EQ(optimizer_from_name(to_string(kind)), kind);
  }
  EXPECT_THROW(optimizer_from_name("lbfgs"), std::invalid_argument);
}

TEST(Sgd, SingleStepIsLrTimesGrad) {
  OptimizerOptions options;
  options.kind = OptimizerKind::Sgd;
  options.learning_rate = 0.1;
  auto optimizer = make_optimizer(options, 1);
  std::vector<float> params{1.0f};
  const std::vector<float> grads{2.0f};
  optimizer->step(0, params, grads, /*decay=*/false);
  EXPECT_NEAR(params[0], 1.0f - 0.1f * 2.0f, 1e-6f);
}

TEST(Sgd, WeightDecayAppliesOnlyWhenRequested) {
  OptimizerOptions options;
  options.kind = OptimizerKind::Sgd;
  options.learning_rate = 0.1;
  options.weight_decay = 1.0;
  auto optimizer = make_optimizer(options, 2);
  std::vector<float> decayed{1.0f}, undecayed{1.0f};
  const std::vector<float> zero_grad{0.0f};
  optimizer->step(0, decayed, zero_grad, true);
  optimizer->step(1, undecayed, zero_grad, false);
  EXPECT_LT(decayed[0], 1.0f);
  EXPECT_FLOAT_EQ(undecayed[0], 1.0f);
}

// Every optimizer must minimize the convex quadratic f(x) = ||x - t||².
class OptimizerConvergenceTest : public ::testing::TestWithParam<OptimizerKind> {};

TEST_P(OptimizerConvergenceTest, MinimizesQuadratic) {
  OptimizerOptions options;
  options.kind = GetParam();
  options.learning_rate = options.kind == OptimizerKind::Adam ? 0.05 : 0.1;
  auto optimizer = make_optimizer(options, 1);

  std::vector<float> x{5.0f, -3.0f};
  const std::vector<float> target{1.0f, 2.0f};
  for (int step = 0; step < 500; ++step) {
    std::vector<float> grads(2);
    for (int i = 0; i < 2; ++i) grads[static_cast<std::size_t>(i)] = 2.0f * (x[static_cast<std::size_t>(i)] - target[static_cast<std::size_t>(i)]);
    optimizer->step(0, x, grads, false);
    optimizer->advance();
  }
  EXPECT_NEAR(x[0], 1.0f, 0.05f);
  EXPECT_NEAR(x[1], 2.0f, 0.05f);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, OptimizerConvergenceTest,
                         ::testing::Values(OptimizerKind::Sgd, OptimizerKind::Momentum,
                                           OptimizerKind::Adam),
                         [](const auto& info) { return std::string(to_string(info.param)); });

TEST(Momentum, AcceleratesInConsistentDirection) {
  OptimizerOptions sgd_options;
  sgd_options.kind = OptimizerKind::Sgd;
  sgd_options.learning_rate = 0.01;
  OptimizerOptions momentum_options = sgd_options;
  momentum_options.kind = OptimizerKind::Momentum;
  momentum_options.momentum = 0.9;

  auto sgd = make_optimizer(sgd_options, 1);
  auto momentum = make_optimizer(momentum_options, 1);
  std::vector<float> x_sgd{0.0f}, x_momentum{0.0f};
  const std::vector<float> grad{-1.0f};  // constant downhill
  for (int i = 0; i < 20; ++i) {
    sgd->step(0, x_sgd, grad, false);
    momentum->step(0, x_momentum, grad, false);
  }
  EXPECT_GT(x_momentum[0], x_sgd[0] * 2.0f);
}

TEST(Adam, StepMagnitudeBoundedByLearningRate) {
  OptimizerOptions options;
  options.kind = OptimizerKind::Adam;
  options.learning_rate = 0.001;
  auto optimizer = make_optimizer(options, 1);
  std::vector<float> x{0.0f};
  // Huge gradient: Adam normalizes, so the first step ~ lr.
  optimizer->step(0, x, std::vector<float>{1e6f}, false);
  EXPECT_NEAR(std::fabs(x[0]), 0.001f, 2e-4f);
}

TEST(Adam, PerSlotStateIsIndependent) {
  OptimizerOptions options;
  options.kind = OptimizerKind::Adam;
  options.learning_rate = 0.01;
  auto optimizer = make_optimizer(options, 2);
  std::vector<float> a{0.0f}, b{0.0f};
  optimizer->step(0, a, std::vector<float>{1.0f}, false);
  // Slot 1 never saw a gradient; its state must start fresh.
  optimizer->step(1, b, std::vector<float>{1.0f}, false);
  EXPECT_NEAR(a[0], b[0], 1e-6f);
}

// Scalar references for the Adam and Momentum updates: plain indexed loops,
// Adam's bias correction recomputed with std::pow on every step.
struct ReferenceAdam {
  OptimizerOptions options;
  std::vector<float> m, v;
  std::size_t t = 1;

  void step(std::vector<float>& params, const std::vector<float>& grads, bool decay) {
    if (m.size() != params.size()) {
      m.assign(params.size(), 0.0f);
      v.assign(params.size(), 0.0f);
    }
    const double b1 = options.beta1;
    const double b2 = options.beta2;
    const double bias1 = 1.0 - std::pow(b1, static_cast<double>(t));
    const double bias2 = 1.0 - std::pow(b2, static_cast<double>(t));
    const float lr = static_cast<float>(options.learning_rate);
    const float eps = static_cast<float>(options.epsilon);
    const float wd = decay ? static_cast<float>(options.weight_decay) : 0.0f;
    for (std::size_t i = 0; i < params.size(); ++i) {
      const float g = grads[i] + wd * params[i];
      m[i] = static_cast<float>(b1) * m[i] + static_cast<float>(1.0 - b1) * g;
      v[i] = static_cast<float>(b2) * v[i] + static_cast<float>(1.0 - b2) * g * g;
      const float m_hat = m[i] / static_cast<float>(bias1);
      const float v_hat = v[i] / static_cast<float>(bias2);
      params[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
    }
  }
};

struct ReferenceMomentum {
  OptimizerOptions options;
  std::vector<float> v;

  void step(std::vector<float>& params, const std::vector<float>& grads, bool decay) {
    if (v.size() != params.size()) v.assign(params.size(), 0.0f);
    const float lr = static_cast<float>(options.learning_rate);
    const float mu = static_cast<float>(options.momentum);
    const float wd = decay ? static_cast<float>(options.weight_decay) : 0.0f;
    for (std::size_t i = 0; i < params.size(); ++i) {
      const float g = grads[i] + wd * params[i];
      v[i] = mu * v[i] - lr * g;
      params[i] += v[i];
    }
  }
};

std::vector<float> random_vector(std::size_t n, util::Rng& rng, double scale) {
  std::vector<float> out(n);
  for (float& value : out) value = static_cast<float>(rng.next_double(-scale, scale));
  return out;
}

std::vector<std::uint32_t> bit_patterns(const std::vector<float>& values) {
  std::vector<std::uint32_t> out(values.size());
  std::memcpy(out.data(), values.data(), values.size() * sizeof(float));
  return out;
}

// Two slots (a decayed weight slot and an undecayed bias slot) over five
// minibatches; lengths 1, 3, 7 and 33 exercise the vector loops' tails.
template <typename Reference>
void expect_matches_reference(OptimizerKind kind) {
  OptimizerOptions options;
  options.kind = kind;
  options.learning_rate = 0.01;
  options.weight_decay = 1e-3;
  for (const std::size_t n : {1u, 3u, 7u, 33u}) {
    util::Rng rng(n);
    auto optimizer = make_optimizer(options, 2);
    Reference weight_ref, bias_ref;
    weight_ref.options = options;
    bias_ref.options = options;
    std::vector<float> weights = random_vector(n, rng, 1.0), bias = random_vector(n, rng, 0.1);
    std::vector<float> weights_ref = weights, bias_ref_params = bias;
    for (int step = 0; step < 5; ++step) {
      const std::vector<float> grad_w = random_vector(n, rng, 2.0);
      const std::vector<float> grad_b = random_vector(n, rng, 2.0);
      optimizer->step(0, weights, grad_w, /*decay=*/true);
      optimizer->step(1, bias, grad_b, /*decay=*/false);
      optimizer->advance();
      weight_ref.step(weights_ref, grad_w, true);
      bias_ref.step(bias_ref_params, grad_b, false);
      if constexpr (std::is_same_v<Reference, ReferenceAdam>) {
        ++weight_ref.t;
        ++bias_ref.t;
      }
      ASSERT_EQ(bit_patterns(weights), bit_patterns(weights_ref)) << "n=" << n << " step=" << step;
      ASSERT_EQ(bit_patterns(bias), bit_patterns(bias_ref_params)) << "n=" << n << " step=" << step;
    }
  }
}

TEST(Adam, BitIdenticalToScalarReference) {
  expect_matches_reference<ReferenceAdam>(OptimizerKind::Adam);
}

TEST(Momentum, BitIdenticalToScalarReference) {
  expect_matches_reference<ReferenceMomentum>(OptimizerKind::Momentum);
}

}  // namespace
}  // namespace ecad::nn
