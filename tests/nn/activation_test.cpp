#include "nn/activation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

namespace ecad::nn {
namespace {

TEST(Activation, NamesRoundTrip) {
  for (Activation activation :
       {Activation::ReLU, Activation::Sigmoid, Activation::Tanh, Activation::LeakyReLU,
        Activation::Elu, Activation::Identity}) {
    EXPECT_EQ(activation_from_name(to_string(activation)), activation);
  }
  EXPECT_EQ(activation_from_name("logistic"), Activation::Sigmoid);
  EXPECT_EQ(activation_from_name("linear"), Activation::Identity);
  EXPECT_THROW(activation_from_name("swish"), std::invalid_argument);
}

TEST(Activation, ScalarValues) {
  EXPECT_FLOAT_EQ(activate_scalar(Activation::ReLU, -2.0f), 0.0f);
  EXPECT_FLOAT_EQ(activate_scalar(Activation::ReLU, 3.0f), 3.0f);
  EXPECT_NEAR(activate_scalar(Activation::Sigmoid, 0.0f), 0.5f, 1e-6);
  EXPECT_NEAR(activate_scalar(Activation::Tanh, 100.0f), 1.0f, 1e-6);
  EXPECT_FLOAT_EQ(activate_scalar(Activation::LeakyReLU, -1.0f), -0.01f);
  EXPECT_NEAR(activate_scalar(Activation::Elu, -100.0f), -1.0f, 1e-5);
  EXPECT_FLOAT_EQ(activate_scalar(Activation::Identity, -7.5f), -7.5f);
}

class ActivationParamTest : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationParamTest, MatrixApplyMatchesScalar) {
  const Activation activation = GetParam();
  util::Rng rng(3);
  const linalg::Matrix z = linalg::Matrix::random_uniform(4, 5, rng, -3.0f, 3.0f);
  linalg::Matrix y;
  apply_activation(activation, z, y);
  for (std::size_t i = 0; i < z.size(); ++i) {
    EXPECT_NEAR(y.data()[i], activate_scalar(activation, z.data()[i]), 1e-6f);
  }
}

TEST_P(ActivationParamTest, InPlaceApplyAllowed) {
  const Activation activation = GetParam();
  util::Rng rng(5);
  linalg::Matrix z = linalg::Matrix::random_uniform(3, 3, rng, -2.0f, 2.0f);
  const linalg::Matrix original = z;
  apply_activation(activation, z, z);
  for (std::size_t i = 0; i < z.size(); ++i) {
    EXPECT_NEAR(z.data()[i], activate_scalar(activation, original.data()[i]), 1e-6f);
  }
}

TEST_P(ActivationParamTest, GradientMatchesFiniteDifference) {
  const Activation activation = GetParam();
  util::Rng rng(7);
  // Avoid the ReLU kink at exactly 0 by sampling away from it.
  linalg::Matrix z(1, 16);
  for (std::size_t i = 0; i < z.size(); ++i) {
    float v = static_cast<float>(rng.next_double(-2.0, 2.0));
    if (std::fabs(v) < 0.05f) v = 0.1f;
    z.data()[i] = v;
  }
  linalg::Matrix delta(1, 16, 1.0f);
  linalg::Matrix a;
  apply_activation(activation, z, a);
  apply_activation_gradient(activation, z, a, delta);

  const float eps = 1e-3f;
  for (std::size_t i = 0; i < z.size(); ++i) {
    const float fd = (activate_scalar(activation, z.data()[i] + eps) -
                      activate_scalar(activation, z.data()[i] - eps)) /
                     (2.0f * eps);
    EXPECT_NEAR(delta.data()[i], fd, 5e-3f) << to_string(activation) << " at z=" << z.data()[i];
  }
}

// Reference gradient: every activation's derivative recomputed from the
// pre-activation z alone, one element at a time.
void pre_based_gradient(Activation activation, const linalg::Matrix& z, linalg::Matrix& delta) {
  const float* pre = z.raw();
  float* d = delta.raw();
  for (std::size_t i = 0; i < z.size(); ++i) {
    switch (activation) {
      case Activation::ReLU:
        if (pre[i] <= 0.0f) d[i] = 0.0f;
        break;
      case Activation::Sigmoid: {
        const float s = 1.0f / (1.0f + std::exp(-pre[i]));
        d[i] *= s * (1.0f - s);
        break;
      }
      case Activation::Tanh: {
        const float t = std::tanh(pre[i]);
        d[i] *= 1.0f - t * t;
        break;
      }
      case Activation::LeakyReLU:
        if (pre[i] <= 0.0f) d[i] *= 0.01f;
        break;
      case Activation::Elu:
        if (pre[i] <= 0.0f) d[i] *= std::exp(pre[i]);
        break;
      case Activation::Identity:
        break;
    }
  }
}

std::uint32_t bits(float value) {
  std::uint32_t out = 0;
  std::memcpy(&out, &value, sizeof(out));
  return out;
}

TEST_P(ActivationParamTest, GradientBitIdenticalToPreBasedReference) {
  // Random z plus signed zeros, tiny values, and |z| > 20 where sigmoid and
  // tanh saturate; 131 elements so vector loops also run a scalar tail.
  const Activation activation = GetParam();
  util::Rng rng(11);
  std::vector<float> values = {0.0f,  -0.0f, 1e-8f, -1e-8f, 20.5f,  -20.5f,
                               25.0f, -25.0f, 88.0f, -88.0f, 100.0f, -100.0f};
  while (values.size() < 131) values.push_back(static_cast<float>(rng.next_double(-30.0, 30.0)));
  linalg::Matrix z(1, values.size());
  std::copy(values.begin(), values.end(), z.raw());
  const linalg::Matrix delta0 = linalg::Matrix::random_uniform(1, values.size(), rng, -2.0f, 2.0f);

  linalg::Matrix a;
  apply_activation(activation, z, a);
  linalg::Matrix actual = delta0;
  apply_activation_gradient(activation, z, a, actual);
  linalg::Matrix expected = delta0;
  pre_based_gradient(activation, z, expected);
  for (std::size_t i = 0; i < z.size(); ++i) {
    EXPECT_EQ(bits(actual.raw()[i]), bits(expected.raw()[i]))
        << to_string(activation) << " at z=" << z.raw()[i] << ": " << actual.raw()[i]
        << " vs " << expected.raw()[i];
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationParamTest,
                         ::testing::Values(Activation::ReLU, Activation::Sigmoid,
                                           Activation::Tanh, Activation::LeakyReLU,
                                           Activation::Elu, Activation::Identity),
                         [](const auto& info) { return std::string(to_string(info.param)); });

TEST(Softmax, RowsSumToOne) {
  util::Rng rng(9);
  const linalg::Matrix z = linalg::Matrix::random_uniform(6, 10, rng, -5.0f, 5.0f);
  linalg::Matrix y;
  softmax_rows(z, y);
  for (std::size_t r = 0; r < y.rows(); ++r) {
    float total = 0.0f;
    for (std::size_t c = 0; c < y.cols(); ++c) {
      EXPECT_GT(y.at(r, c), 0.0f);
      total += y.at(r, c);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  const linalg::Matrix z{{1000.0f, 1001.0f}};
  linalg::Matrix y;
  softmax_rows(z, y);
  EXPECT_FALSE(std::isnan(y.at(0, 0)));
  EXPECT_NEAR(y.at(0, 0) + y.at(0, 1), 1.0f, 1e-5f);
  EXPECT_GT(y.at(0, 1), y.at(0, 0));
}

TEST(Softmax, ShiftInvariance) {
  const linalg::Matrix a{{1.0f, 2.0f, 3.0f}};
  const linalg::Matrix b{{11.0f, 12.0f, 13.0f}};
  linalg::Matrix ya, yb;
  softmax_rows(a, ya);
  softmax_rows(b, yb);
  EXPECT_TRUE(ya.approx_equal(yb, 1e-5f));
}

}  // namespace
}  // namespace ecad::nn
