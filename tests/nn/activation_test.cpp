#include "nn/activation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

namespace ecad::nn {
namespace {

// ---------------------------------------------------------------------------
// Reference oracles for the lane kernels in src/nn/activation.cpp, which
// must match them bit for bit on every input:
//  - fdlibm's s_expm1f.c and s_tanhf.c (glibc sysdeps/ieee754/flt-32),
//    transliterated to C++ branch for branch, for tanh and ELU;
//  - glibc 2.36's e_expf.c, with the five multiply-adds that glibc's FMA
//    variant fuses written as std::fma, for exp, sigmoid, the ELU gradient
//    and softmax.
// This file builds with -ffp-contract=off, as the kernels do, so no other
// multiply-add here is fused.
// ---------------------------------------------------------------------------

std::uint32_t bits(float value) {
  std::uint32_t out = 0;
  std::memcpy(&out, &value, sizeof(out));
  return out;
}

float from_bits(std::uint32_t word) {
  float out = 0.0f;
  std::memcpy(&out, &word, sizeof(out));
  return out;
}

// SET_FLOAT_WORD(y, GET_FLOAT_WORD(y) + (k << 23)): adds k to y's exponent.
float add_to_exponent(float y, std::int32_t k) {
  return from_bits(bits(y) + (static_cast<std::uint32_t>(k) << 23));
}

float ref_expm1f(float x) {
  constexpr float one = 1.0f;
  constexpr float huge = 1.0e30f;
  constexpr float tiny = 1.0e-30f;
  constexpr float o_threshold = 8.8721679688e+01f;  // 0x42b17180
  constexpr float ln2_hi = 6.9313812256e-01f;       // 0x3f317180
  constexpr float ln2_lo = 9.0580006145e-06f;       // 0x3717f7d1
  constexpr float invln2 = 1.4426950216e+00f;       // 0x3fb8aa3b
  constexpr float Q1 = -3.3333335072e-02f;          // 0xbd088889
  constexpr float Q2 = 1.5873016091e-03f;           // 0x3ad00d01
  constexpr float Q3 = -7.9365076090e-05f;          // 0xb8a670cd
  constexpr float Q4 = 4.0082177293e-06f;           // 0x36867e54
  constexpr float Q5 = -2.0109921195e-07f;          // 0xb457edbb

  float hi = 0.0f;
  float lo = 0.0f;
  float c = 0.0f;
  float t = 0.0f;
  std::int32_t k = 0;
  std::uint32_t hx = bits(x);
  const std::uint32_t xsb = hx & 0x80000000u;
  hx &= 0x7fffffff;

  // Huge and non-finite arguments.
  if (hx >= 0x4195b844) {    // |x| >= 27·ln2
    if (hx >= 0x42b17218) {  // |x| >= 88.721...
      if (hx > 0x7f800000) return x + x;                     // NaN
      if (hx == 0x7f800000) return xsb == 0 ? x : -1.0f;     // exp(±inf) - 1
      if (x > o_threshold) return huge * huge;               // overflow
    }
    if (xsb != 0) return tiny - one;  // x < -27·ln2
  }

  // Argument reduction.
  if (hx > 0x3eb17218) {    // |x| > 0.5·ln2
    if (hx < 0x3f851592) {  // and |x| < 1.5·ln2
      if (xsb == 0) {
        hi = x - ln2_hi;
        lo = ln2_lo;
        k = 1;
      } else {
        hi = x + ln2_hi;
        lo = -ln2_lo;
        k = -1;
      }
    } else {
      k = static_cast<std::int32_t>(invln2 * x + (xsb == 0 ? 0.5f : -0.5f));
      t = static_cast<float>(k);
      hi = x - t * ln2_hi;
      lo = t * ln2_lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000) {  // |x| < 2^-25
    t = huge + x;
    return x - (t - (huge + x));
  } else {
    k = 0;
  }

  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 = one + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
  t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k == 1) {
    if (x < -0.25f) return -2.0f * (e - (x + 0.5f));
    return one + 2.0f * (x - e);
  }
  if (k <= -2 || k > 56) return add_to_exponent(one - (e - x), k) - one;
  float y = 0.0f;
  if (k < 23) {
    t = from_bits(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    y = t - (e - x);
  } else {
    t = from_bits(static_cast<std::uint32_t>(0x7f - k) << 23);  // 2^-k
    y = x - (e + t);
    y += one;
  }
  return add_to_exponent(y, k);
}

float ref_tanhf(float x) {
  constexpr float one = 1.0f;
  constexpr float two = 2.0f;
  constexpr float tiny = 1.0e-30f;
  const auto jx = static_cast<std::int32_t>(bits(x));
  const std::int32_t ix = jx & 0x7fffffff;

  if (ix >= 0x7f800000) return jx >= 0 ? one / x + one : one / x - one;  // inf or NaN

  float z = 0.0f;
  if (ix < 0x41b00000) {               // |x| < 22
    if (ix == 0) return x;             // ±0
    if (ix < 0x24000000) return x * (one + x);  // |x| < 2^-55
    if (ix >= 0x3f800000) {            // |x| >= 1
      const float t = ref_expm1f(two * std::fabs(x));
      z = one - two / (t + two);
    } else {
      const float t = ref_expm1f(-two * std::fabs(x));
      z = -t / (t + two);
    }
  } else {
    z = one - tiny;  // |x| >= 22: ±1
  }
  return jx >= 0 ? z : -z;
}

float ref_elu(float x) { return x > 0.0f ? x : ref_expm1f(x); }

std::uint64_t bits64(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof(out));
  return out;
}

double from_bits64(std::uint64_t word) {
  double out = 0.0;
  std::memcpy(&out, &word, sizeof(out));
  return out;
}

// e_expf.c's 2^(i/32) table, computed rather than copied: the correctly
// rounded 2^(i/32), minus i << 47. A long double carries 11 bits beyond a
// double, so rounding exp2l's result gives the correctly rounded double;
// ExpTableMatchesGlibc and the exp digest would show an entry where it
// does not.
std::uint64_t exp2_table_entry(std::uint64_t i) {
  static const std::array<std::uint64_t, 32> table = [] {
    std::array<std::uint64_t, 32> out{};
    for (std::uint64_t j = 0; j < out.size(); ++j) {
      const long double exact = std::exp2(static_cast<long double>(j) / 32.0L);
      out[j] = bits64(static_cast<double>(exact)) - (j << 47);
    }
    return out;
  }();
  return table[i];
}

float ref_expf(float x) {
  constexpr double inv_ln2_n = 0x1.71547652b82fep+0 * 32;
  constexpr double shift = 0x1.8p+52;
  constexpr double C[3] = {0x1.c6af84b912394p-5 / 32 / 32 / 32,
                           0x1.ebfce50fac4f3p-3 / 32 / 32, 0x1.62e42ff0c52d6p-1 / 32};
  const std::uint32_t abstop = (bits(x) >> 20) & 0x7ff;
  if (abstop >= (bits(88.0f) >> 20)) {  // |x| >= 88 or NaN
    if (bits(x) == bits(-std::numeric_limits<float>::infinity())) return 0.0f;
    if (abstop >= (bits(std::numeric_limits<float>::infinity()) >> 20)) return x + x;
    if (x > 0x1.62e42ep6f) return std::numeric_limits<float>::infinity();  // overflow
    if (x < -0x1.9fe368p6f) return 0.0f;                                  // underflow
  }
  const double xd = x;
  // x·32/ln2 = k + r with integer k, |r| <= 1/2.
  double kd = std::fma(inv_ln2_n, xd, shift);
  const std::uint64_t ki = bits64(kd);
  kd -= shift;
  const double r = std::fma(inv_ln2_n, xd, -kd);
  // exp(x) = 2^(k/32) · (C0·r^3 + C1·r^2 + C2·r + 1).
  const double s = from_bits64(exp2_table_entry(ki % 32) + (ki << 47));
  const double z = std::fma(C[0], r, C[1]);
  const double r2 = r * r;
  double y = std::fma(C[2], r, 1.0);
  y = std::fma(z, r2, y);
  y = y * s;
  return static_cast<float>(y);
}

float ref_sigmoid(float x) { return 1.0f / (1.0f + ref_expf(-x)); }

// The ELU gradient for an incoming delta of 1: exp(x) where x <= 0.
float ref_elu_gradient_of_one(float x) { return x <= 0.0f ? 1.0f * ref_expf(x) : 1.0f; }

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
        const float s = ref_sigmoid(pre[i]);
        d[i] *= s * (1.0f - s);
        break;
      }
      case Activation::Tanh: {
        const float t = ref_tanhf(pre[i]);
        d[i] *= 1.0f - t * t;
        break;
      }
      case Activation::LeakyReLU:
        if (pre[i] <= 0.0f) d[i] *= 0.01f;
        break;
      case Activation::Elu:
        if (pre[i] <= 0.0f) d[i] *= ref_expf(pre[i]);
        break;
      case Activation::Identity:
        break;
    }
  }
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

// ---------------------------------------------------------------------------
// Lane kernels vs the references
// ---------------------------------------------------------------------------

// Positive float words at which fdlibm's expm1f changes branch: NaN/inf,
// overflow, o_threshold, 27·ln2, 0.5·ln2, 1.5·ln2, 2^-25, and where the
// reduction's k reaches 23 (22.5·ln2) and 57 (56.5·ln2).
constexpr std::uint32_t kExpm1Thresholds[] = {0x7f800000, 0x42b17218, 0x42b17180,
                                              0x4195b844, 0x3eb17218, 0x3f851592,
                                              0x33000000, 0x41798872, 0x421ca6b9};
// tanhf's own thresholds: 22, 1, 2^-55 and 0.
constexpr std::uint32_t kTanhThresholds[] = {0x41b00000, 0x3f800000, 0x24000000, 0x00000000};
// Positive float words around which e_expf.c changes branch or its result
// changes range: NaN/inf, 88 (the special-case test), the overflow
// threshold log(2^128), the underflow threshold log(2^-150) (negated),
// log(2^-149) and log(2^-126) (negated: the smallest subnormal and the
// first subnormal result), 2^-25 (exp rounds to 1 below it) and 0.
constexpr std::uint32_t kExpThresholds[] = {0x7f800000, 0x42b00000, 0x42b17217, 0x42cff1b4,
                                            0x42ce8ecf, 0x42aeac50, 0x33000000, 0x00000000};
// The only two inputs, 0x1.04845ep+5 and -0x1.f8cbb2p+5, at which e_expf.c
// without fused multiply-adds (glibc's build for CPUs without FMA) gives a
// different float: an unfused step in the kernel shows there.
constexpr std::uint32_t kExpFmaWitnesses[] = {0x4202422f, 0x427c65d9};
constexpr std::int32_t kThresholdUlps = 4096;

// The inputs the kernel tests run: a strided sweep of all 2^32 bit
// patterns, every word within kThresholdUlps of a centre, a strided sweep
// of the subnormals, and the special values — each with both signs.
std::vector<float> sweep_around(const std::vector<std::uint32_t>& centres) {
  std::vector<std::uint32_t> words;
  for (std::uint64_t w = 0; w < (std::uint64_t{1} << 32); w += 4099) {
    words.push_back(static_cast<std::uint32_t>(w));
  }
  for (std::uint32_t centre : centres) {
    for (std::int32_t d = -kThresholdUlps; d <= kThresholdUlps; ++d) {
      const std::int64_t w = static_cast<std::int64_t>(centre) + d;
      if (w < 0 || w > 0x7fffffff) continue;
      words.push_back(static_cast<std::uint32_t>(w));
    }
  }
  for (std::uint32_t w = 1; w < 0x00800000; w += 97) words.push_back(w);
  for (std::uint32_t w : {0x00000000u, 0x00000001u, 0x007fffffu, 0x00800000u, 0x7f7fffffu,
                          0x7f800000u, 0x7f800001u, 0x7fa00000u, 0x7fc00000u, 0x7fc00001u,
                          0x7fffffffu}) {
    words.push_back(w);
  }
  std::vector<float> out;
  out.reserve(2 * words.size());
  for (std::uint32_t w : words) {
    out.push_back(from_bits(w));
    out.push_back(from_bits(w ^ 0x80000000u));
  }
  return out;
}

// The tanh/ELU sweep: fdlibm's thresholds, and for tanh also half of each
// expm1 threshold, since tanh calls expm1 on 2|x|.
std::vector<float> fdlibm_sweep() {
  std::vector<std::uint32_t> centres(std::begin(kTanhThresholds), std::end(kTanhThresholds));
  for (std::uint32_t t : kExpm1Thresholds) {
    centres.push_back(t);
    centres.push_back(t - 0x00800000);  // t / 2
  }
  return sweep_around(centres);
}

std::vector<float> exp_sweep() {
  std::vector<std::uint32_t> centres(std::begin(kExpThresholds), std::end(kExpThresholds));
  centres.insert(centres.end(), std::begin(kExpFmaWitnesses), std::end(kExpFmaWitnesses));
  return sweep_around(centres);
}

// Runs one kernel through the library: out[i] = f(in[i]); out may alias in.
using KernelFn = void (*)(const float* in, float* out, std::size_t n);
using ScalarFn = float (*)(float);

template <Activation kActivation>
void run_activation(const float* in, float* out, std::size_t n) {
  linalg::Matrix z(1, n);
  std::copy(in, in + n, z.raw());
  linalg::Matrix y;
  linalg::Matrix& target = in == out ? z : y;
  apply_activation(kActivation, z, target);
  std::copy(target.raw(), target.raw() + n, out);
}

void run_elu_gradient_of_one(const float* in, float* out, std::size_t n) {
  linalg::Matrix z(1, n);
  std::copy(in, in + n, z.raw());
  linalg::Matrix a;
  apply_activation(Activation::Elu, z, a);
  linalg::Matrix delta(1, n, 1.0f);
  apply_activation_gradient(Activation::Elu, z, a, delta);
  std::copy(delta.raw(), delta.raw() + n, out);
}

template <Activation kActivation>
float scalar_activation(float x) {
  return activate_scalar(kActivation, x);
}

struct KernelCase {
  const char* name;
  KernelFn run;
  ScalarFn reference;
  ScalarFn scalar;  // the library's own scalar entry point, if it has one
};

constexpr KernelCase kFdlibmCases[] = {
    {"tanh", run_activation<Activation::Tanh>, ref_tanhf, scalar_activation<Activation::Tanh>},
    {"elu", run_activation<Activation::Elu>, ref_elu, scalar_activation<Activation::Elu>}};
constexpr KernelCase kExpCases[] = {
    {"exp", exp_array, ref_expf, nullptr},
    {"sigmoid", run_activation<Activation::Sigmoid>, ref_sigmoid,
     scalar_activation<Activation::Sigmoid>},
    {"elu_gradient", run_elu_gradient_of_one, ref_elu_gradient_of_one, nullptr}};

std::vector<KernelCase> all_kernel_cases() {
  std::vector<KernelCase> cases(std::begin(kFdlibmCases), std::end(kFdlibmCases));
  cases.insert(cases.end(), std::begin(kExpCases), std::end(kExpCases));
  return cases;
}

// Runs the kernel over `inputs` and counts outputs whose bits differ from
// the reference, describing the first few in `report`.
std::size_t kernel_mismatches(const KernelCase& kc, const std::vector<float>& inputs,
                              std::string* report) {
  std::vector<float> outputs(inputs.size());
  kc.run(inputs.data(), outputs.data(), inputs.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::uint32_t want = bits(kc.reference(inputs[i]));
    const std::uint32_t got = bits(outputs[i]);
    if (want == got) continue;
    if (++mismatches <= 8 && report != nullptr) {
      char line[96];
      std::snprintf(line, sizeof(line), "  %s(0x%08x): got 0x%08x, want 0x%08x\n", kc.name,
                    bits(inputs[i]), got, want);
      *report += line;
    }
  }
  return mismatches;
}

TEST(ActivationKernels, SweepMatchesReference) {
  const std::vector<float> fdlibm_inputs = fdlibm_sweep();
  for (const KernelCase& kc : kFdlibmCases) {
    std::string report;
    EXPECT_EQ(kernel_mismatches(kc, fdlibm_inputs, &report), 0u) << report;
  }
  const std::vector<float> exp_inputs = exp_sweep();
  for (const KernelCase& kc : kExpCases) {
    std::string report;
    EXPECT_EQ(kernel_mismatches(kc, exp_inputs, &report), 0u) << report;
  }
}

TEST(ActivationKernels, ExpTableMatchesGlibc) {
  // The reference derives e_expf.c's table; glibc's own first and last
  // entries pin the derivation.
  EXPECT_EQ(exp2_table_entry(0), 0x3ff0000000000000ull);
  EXPECT_EQ(exp2_table_entry(1), 0x3fefd9b0d3158574ull);
  EXPECT_EQ(exp2_table_entry(16), 0x3feea09e667f3bcdull);
  EXPECT_EQ(exp2_table_entry(31), 0x3fefd0765b6e4540ull);
}

// FNV-1a over the output words, little-endian byte order.
std::uint64_t fnv64(const std::vector<float>& values) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (float v : values) {
    const std::uint32_t w = bits(v);
    for (int shift = 0; shift < 32; shift += 8) {
      hash ^= (w >> shift) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  }
  return hash;
}

std::uint64_t sweep_digest(KernelFn run, const std::vector<float>& inputs) {
  std::vector<float> outputs(inputs.size());
  run(inputs.data(), outputs.data(), inputs.size());
  return fnv64(outputs);
}

TEST(ActivationKernels, SweepDigestMatchesGlibc) {
  // Digests of glibc 2.36's tanhf and of x > 0 ? x : expm1f(x) over
  // fdlibm_sweep(), recorded from the loops the fdlibm kernel replaced, and
  // of glibc 2.36's expf (FMA variant), 1 / (1 + expf(-x)) and the ELU
  // gradient x <= 0 ? 1 · expf(x) : 1 over exp_sweep(), recorded from the
  // loops the exp kernel replaced. They pin the kernels to those values
  // without calling the host's libm.
  constexpr std::uint64_t kGlibcTanhDigest = 0xbc6c9a8f9ba71659ull;
  constexpr std::uint64_t kGlibcEluDigest = 0xe137fe6e7d47dd67ull;
  constexpr std::uint64_t kGlibcExpDigest = 0x3cb7ae9a885e2808ull;
  constexpr std::uint64_t kGlibcSigmoidDigest = 0x78c8e10b92b39534ull;
  constexpr std::uint64_t kGlibcEluGradientDigest = 0x9b89689ccbf48d10ull;
  const std::vector<float> fdlibm_inputs = fdlibm_sweep();
  EXPECT_EQ(sweep_digest(run_activation<Activation::Tanh>, fdlibm_inputs), kGlibcTanhDigest);
  EXPECT_EQ(sweep_digest(run_activation<Activation::Elu>, fdlibm_inputs), kGlibcEluDigest);
  const std::vector<float> exp_inputs = exp_sweep();
  EXPECT_EQ(sweep_digest(exp_array, exp_inputs), kGlibcExpDigest);
  EXPECT_EQ(sweep_digest(run_activation<Activation::Sigmoid>, exp_inputs),
            kGlibcSigmoidDigest);
  EXPECT_EQ(sweep_digest(run_elu_gradient_of_one, exp_inputs), kGlibcEluGradientDigest);
}

TEST(ActivationKernels, TailLengthsMatchReference) {
  // Every length from 0 to 17 covers a bare tail, one full vector, and a
  // full vector plus each tail size; each run also goes in place and
  // through the scalar entry point, if any.
  util::Rng rng(13);
  for (const KernelCase& kc : all_kernel_cases()) {
    for (std::size_t n = 0; n <= 17; ++n) {
      std::vector<float> inputs;
      for (std::size_t i = 0; i < n; ++i) {
        inputs.push_back(i % 5 == 4 ? std::numeric_limits<float>::quiet_NaN()
                                    : static_cast<float>(rng.next_double(-30.0, 30.0)));
      }
      std::string report;
      EXPECT_EQ(kernel_mismatches(kc, inputs, &report), 0u) << "n=" << n << "\n" << report;
      if (kc.run == run_elu_gradient_of_one) continue;  // its input is not its output
      std::vector<float> in_place = inputs;
      kc.run(in_place.data(), in_place.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t want = bits(kc.reference(inputs[i]));
        EXPECT_EQ(bits(in_place[i]), want) << kc.name << " in place, n=" << n;
        if (kc.scalar != nullptr) {
          EXPECT_EQ(bits(kc.scalar(inputs[i])), want) << kc.name;
        }
      }
    }
  }
}

// The row loop softmax_rows replaced, with the exp reference in place of
// the host's expf.
void ref_softmax_rows(const linalg::Matrix& z, linalg::Matrix& y) {
  y = linalg::Matrix(z.rows(), z.cols());
  const std::size_t cols = z.cols();
  for (std::size_t r = 0; r < z.rows(); ++r) {
    const float* in = z.raw() + r * cols;
    float* out = y.raw() + r * cols;
    float max_v = in[0];
    for (std::size_t c = 1; c < cols; ++c) max_v = std::max(max_v, in[c]);
    float total = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) {
      out[c] = ref_expf(in[c] - max_v);
      total += out[c];
    }
    const float inv = 1.0f / total;
    for (std::size_t c = 0; c < cols; ++c) out[c] *= inv;
  }
}

TEST(Softmax, BitIdenticalToRowLoop) {
  // The trainer's 32×3 output layer, shapes whose size leaves every vector
  // tail, wide logits, and a row with -inf and a row with NaN; both out of
  // place and in place.
  util::Rng rng(17);
  for (const auto& [rows, cols, spread] :
       {std::tuple{32, 3, 8.0}, {1, 1, 1.0}, {3, 5, 30.0}, {7, 17, 100.0}, {9, 2, 1e3}}) {
    linalg::Matrix z = linalg::Matrix::random_uniform(static_cast<std::size_t>(rows),
                                                      static_cast<std::size_t>(cols), rng,
                                                      static_cast<float>(-spread),
                                                      static_cast<float>(spread));
    if (rows > 2 && cols > 1) {
      z.at(1, 0) = -std::numeric_limits<float>::infinity();
      z.at(2, 1) = std::numeric_limits<float>::quiet_NaN();
    }
    linalg::Matrix expected;
    ref_softmax_rows(z, expected);
    linalg::Matrix actual;
    softmax_rows(z, actual);
    linalg::Matrix in_place = z;
    softmax_rows(in_place, in_place);
    for (std::size_t i = 0; i < z.size(); ++i) {
      EXPECT_EQ(bits(actual.raw()[i]), bits(expected.raw()[i]))
          << rows << "x" << cols << " at " << i;
      EXPECT_EQ(bits(in_place.raw()[i]), bits(expected.raw()[i]))
          << rows << "x" << cols << " in place at " << i;
    }
  }
}

// All 2^32 inputs, about a minute on four threads of a Release build. CI
// runs it in the bench-smoke job with --gtest_also_run_disabled_tests.
TEST(ActivationKernels, DISABLED_ExhaustiveMatchesReference) {
  constexpr std::uint64_t kTotal = std::uint64_t{1} << 32;
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  const unsigned threads = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  for (const KernelCase& kc : all_kernel_cases()) {
    std::atomic<std::uint64_t> next{0};
    std::atomic<std::size_t> mismatches{0};
    std::string first_report;
    std::atomic<bool> reported{false};
    auto worker = [&] {
      std::vector<float> inputs(kChunk);
      for (std::uint64_t base = next.fetch_add(kChunk); base < kTotal;
           base = next.fetch_add(kChunk)) {
        for (std::size_t i = 0; i < kChunk; ++i) {
          inputs[i] = from_bits(static_cast<std::uint32_t>(base + i));
        }
        std::string report;
        const std::size_t bad = kernel_mismatches(kc, inputs, &report);
        if (bad != 0 && !reported.exchange(true)) first_report = report;
        mismatches += bad;
      }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
    EXPECT_EQ(mismatches.load(), 0u) << kc.name << "\n" << first_report;
  }
}

}  // namespace
}  // namespace ecad::nn
