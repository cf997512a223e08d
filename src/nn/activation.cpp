#include "nn/activation.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "util/string_util.h"
#include "util/target_clones.h"

namespace ecad::nn {

namespace {
constexpr float kLeakySlope = 0.01f;

// ---------------------------------------------------------------------------
// tanh and ELU kernel
// ---------------------------------------------------------------------------
//
// fdlibm's s_expm1f.c and s_tanhf.c (the float versions glibc ships in
// sysdeps/ieee754/flt-32), transliterated to eight lanes at a time. Every
// branch of the C source becomes a lane select, and each lane performs the
// same IEEE float operations in the same order as the scalar code, so the
// results are bit-identical to the scalar fdlibm functions on every input,
// NaN payloads and signed zeros included. That requires this file to build
// with -ffp-contract=off: the x86-64-v3/v4 clones have FMA, and contracting
// a multiply-add would round once where fdlibm rounds twice.
//
// The scalar transliteration the lanes are tested against lives in
// tests/nn/activation_test.cpp.

// The helpers take and return vectors by reference: a 32-byte vector passed
// by value has a different ABI in the SSE2 clone than in the AVX ones.
using F8 = float __attribute__((vector_size(32)));
using I8 = std::int32_t __attribute__((vector_size(32)));
using U8 = std::uint32_t __attribute__((vector_size(32)));
constexpr std::size_t kLanes = 8;

// fdlibm expm1f. Lanes that fdlibm answers before argument reduction (NaN,
// ±inf, overflow, x <= -27·ln2) run the polynomial on x = 0 and take their
// answer from the selects at the end, as do lanes with |x| < 2^-25.
ECAD_ALWAYS_INLINE void expm1_lanes(const F8& x_in, F8& r) {
  constexpr float ln2_hi = 6.9313812256e-01f;  // 0x3f317180
  constexpr float ln2_lo = 9.0580006145e-06f;  // 0x3717f7d1
  constexpr float invln2 = 1.4426950216e+00f;  // 0x3fb8aa3b
  constexpr float Q1 = -3.3333335072e-02f;     // 0xbd088889
  constexpr float Q2 = 1.5873016091e-03f;      // 0x3ad00d01
  constexpr float Q3 = -7.9365076090e-05f;     // 0xb8a670cd
  constexpr float Q4 = 4.0082177293e-06f;      // 0x36867e54
  constexpr float Q5 = -2.0109921195e-07f;     // 0xb457edbb
  const F8 zero = {};
  const I8 izero = {};

  const I8 bits = reinterpret_cast<I8>(x_in);
  const I8 hx = bits & 0x7fffffff;
  const I8 positive = bits >= 0;
  const I8 is_nan = hx > 0x7f800000;
  const I8 is_inf = hx == 0x7f800000;
  // |x| >= 88.721...: positive finite lanes overflow (x > o_threshold).
  const I8 overflow = positive & (hx >= 0x42b17218);
  // x <= -27·ln2: fdlibm returns tiny - one.
  const I8 saturated = ~positive & (hx >= 0x4195b844);
  const I8 tiny = hx < 0x33000000;
  const F8 x = (overflow | saturated) ? zero : x_in;

  // Argument reduction: x = hi - lo, k = round(x / ln2).
  const I8 reduce = hx > 0x3eb17218;    // |x| > 0.5·ln2
  const I8 near_ln2 = hx < 0x3f851592;  // |x| < 1.5·ln2: k = ±1
  const F8 half = positive ? zero + 0.5f : zero - 0.5f;
  const I8 k_general = __builtin_convertvector(invln2 * x + half, I8);  // truncates, as C does
  const F8 t_general = __builtin_convertvector(k_general, F8);
  const F8 hi = near_ln2 ? (positive ? x - ln2_hi : x + ln2_hi) : x - t_general * ln2_hi;
  const F8 lo = near_ln2 ? (positive ? zero + ln2_lo : zero - ln2_lo) : t_general * ln2_lo;
  const I8 k = reduce ? (near_ln2 ? (positive ? izero + 1 : izero - 1) : k_general) : izero;
  const F8 reduced = hi - lo;
  const F8 xr = reduce ? reduced : x;
  const F8 c = reduce ? (hi - reduced) - lo : zero;

  // x is now in the primary range.
  const F8 hfx = 0.5f * xr;
  const F8 hxs = xr * hfx;
  const F8 r1 = 1.0f + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
  const F8 t = 3.0f - r1 * hfx;
  F8 e = hxs * ((r1 - t) / (6.0f - xr * t));
  const F8 r_k0 = xr - (xr * e - hxs);
  e = (xr * (e - c) - c);
  e -= hxs;
  const F8 r_km1 = 0.5f * (xr - e) - 0.5f;
  const F8 r_k1 = xr < -0.25f ? -2.0f * (e - (xr + 0.5f)) : 1.0f + 2.0f * (xr - e);
  // The remaining cases scale y by 2^k by adding k to its exponent field.
  const U8 k_exp = reinterpret_cast<U8>(k) << 23;
  const F8 y_wide = 1.0f - (e - xr);
  const F8 r_wide = reinterpret_cast<F8>(reinterpret_cast<U8>(y_wide) + k_exp) - 1.0f;
  // two_neg_k = 2^-k, used for 23 <= k <= 56 and, as 1 - 2^-k, for
  // 2 <= k <= 22. Both are exact, and 1 - 2^-k has the bits fdlibm builds
  // as 0x3f800000 - (0x1000000 >> k).
  const F8 two_neg_k = reinterpret_cast<F8>((0x7f - reinterpret_cast<U8>(k)) << 23);
  const F8 y_lt23 = (1.0f - two_neg_k) - (e - xr);
  const F8 r_lt23 = reinterpret_cast<F8>(reinterpret_cast<U8>(y_lt23) + k_exp);
  const F8 y_ge23 = (xr - (e + two_neg_k)) + 1.0f;
  const F8 r_ge23 = reinterpret_cast<F8>(reinterpret_cast<U8>(y_ge23) + k_exp);

  r = k < 23 ? r_lt23 : r_ge23;
  r = (k <= -2) | (k > 56) ? r_wide : r;
  r = k == 1 ? r_k1 : r;
  r = k == -1 ? r_km1 : r;
  r = k == 0 ? r_k0 : r;
  r = tiny ? x_in : r;               // fdlibm's x - ((huge + x) - (huge + x)) is x
  r = saturated ? zero - 1.0f : r;   // tiny - one
  r = overflow ? zero + HUGE_VALF : r;  // huge * huge
  r = is_inf ? (positive ? x_in : zero - 1.0f) : r;
  r = is_nan ? x_in + x_in : r;
}

// fdlibm tanhf: its two expm1f calls become one call on the selected
// argument.
ECAD_ALWAYS_INLINE void tanh_lanes(const F8& x, F8& r) {
  const F8 zero = {};
  const I8 jx = reinterpret_cast<I8>(x);
  const I8 ix = jx & 0x7fffffff;
  const I8 positive = jx >= 0;
  const F8 ax = reinterpret_cast<F8>(ix);  // fabsf(x)
  const I8 ge_one = ix >= 0x3f800000;
  F8 t;
  expm1_lanes(ge_one ? 2.0f * ax : -2.0f * ax, t);
  const F8 z_mid = ge_one ? 1.0f - 2.0f / (t + 2.0f) : -t / (t + 2.0f);
  const F8 z = ix < 0x41b00000 ? z_mid : zero + 1.0f;  // |x| >= 22: one - tiny
  r = positive ? z : -z;
  r = ix < 0x24000000 ? x * (1.0f + x) : r;  // |x| < 2^-55
  r = ix == 0 ? x : r;
  r = ix >= 0x7f800000 ? (positive ? 1.0f / x + 1.0f : 1.0f / x - 1.0f) : r;
}

template <Activation kActivation>
ECAD_ALWAYS_INLINE void activate_lanes(F8& v) {
  F8 r;
  if constexpr (kActivation == Activation::Tanh) {
    tanh_lanes(v, r);
  } else {
    expm1_lanes(v, r);
    r = v > 0.0f ? v : r;
  }
  v = r;
}

// out[i] = f(in[i]) for the lane kernels; a ragged tail runs as one
// zero-padded vector. `out` may alias `in`.
template <Activation kActivation>
ECAD_ALWAYS_INLINE void map_lanes(const float* in, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    F8 v;
    std::memcpy(&v, in + i, sizeof(v));
    activate_lanes<kActivation>(v);
    std::memcpy(out + i, &v, sizeof(v));
  }
  if (i < n) {
    F8 v = {};
    std::memcpy(&v, in + i, (n - i) * sizeof(float));
    activate_lanes<kActivation>(v);
    std::memcpy(out + i, &v, (n - i) * sizeof(float));
  }
}

ECAD_TARGET_CLONES
void tanh_array(const float* in, float* out, std::size_t n) {
  map_lanes<Activation::Tanh>(in, out, n);
}

ECAD_TARGET_CLONES
void elu_array(const float* in, float* out, std::size_t n) {
  map_lanes<Activation::Elu>(in, out, n);
}

// Gives `y` the shape of `z` for an elementwise kernel that overwrites every
// cell, so a buffer reused across minibatches is not zero-filled each time.
void match_shape(const linalg::Matrix& z, linalg::Matrix& y) {
  if (y.rows() != z.rows() || y.cols() != z.cols()) y.reshape_discard(z.rows(), z.cols());
}

}  // namespace

std::string_view to_string(Activation activation) {
  switch (activation) {
    case Activation::ReLU: return "relu";
    case Activation::Sigmoid: return "sigmoid";
    case Activation::Tanh: return "tanh";
    case Activation::LeakyReLU: return "leaky_relu";
    case Activation::Elu: return "elu";
    case Activation::Identity: return "identity";
  }
  return "?";
}

Activation activation_from_name(std::string_view name) {
  const std::string lower = util::to_lower(name);
  if (lower == "relu") return Activation::ReLU;
  if (lower == "sigmoid" || lower == "logistic") return Activation::Sigmoid;
  if (lower == "tanh") return Activation::Tanh;
  if (lower == "leaky_relu" || lower == "leakyrelu") return Activation::LeakyReLU;
  if (lower == "elu") return Activation::Elu;
  if (lower == "identity" || lower == "linear" || lower == "none") return Activation::Identity;
  throw std::invalid_argument("activation_from_name: unknown activation '" + std::string(name) +
                              "'");
}

float activate_scalar(Activation activation, float z) {
  switch (activation) {
    case Activation::ReLU: return z > 0.0f ? z : 0.0f;
    case Activation::Sigmoid: return 1.0f / (1.0f + std::exp(-z));
    case Activation::Tanh: tanh_array(&z, &z, 1); return z;
    case Activation::LeakyReLU: return z > 0.0f ? z : kLeakySlope * z;
    case Activation::Elu: elu_array(&z, &z, 1); return z;
    case Activation::Identity: return z;
  }
  return z;
}

void apply_activation(Activation activation, const linalg::Matrix& z, linalg::Matrix& y) {
  match_shape(z, y);
  const float* in = z.raw();
  float* out = y.raw();
  const std::size_t n = z.size();
  switch (activation) {
    case Activation::ReLU:
      for (std::size_t i = 0; i < n; ++i) out[i] = in[i] > 0.0f ? in[i] : 0.0f;
      break;
    case Activation::Sigmoid:
      for (std::size_t i = 0; i < n; ++i) out[i] = 1.0f / (1.0f + std::exp(-in[i]));
      break;
    case Activation::Tanh:
      tanh_array(in, out, n);
      break;
    case Activation::LeakyReLU:
      for (std::size_t i = 0; i < n; ++i) out[i] = in[i] > 0.0f ? in[i] : kLeakySlope * in[i];
      break;
    case Activation::Elu:
      elu_array(in, out, n);
      break;
    case Activation::Identity:
      if (&y != &z) std::copy(in, in + n, out);
      break;
  }
}

void apply_activation_gradient(Activation activation, const linalg::Matrix& z,
                               const linalg::Matrix& a, linalg::Matrix& delta) {
  if (delta.rows() != z.rows() || delta.cols() != z.cols() || a.rows() != z.rows() ||
      a.cols() != z.cols()) {
    throw std::invalid_argument("apply_activation_gradient: shape mismatch");
  }
  const float* __restrict pre = z.raw();
  const float* __restrict post = a.raw();
  float* __restrict d = delta.raw();
  const std::size_t n = z.size();
  // Every loop but ELU's is branch-free so it vectorizes. Sigmoid and Tanh
  // read f(z) back from `post` instead of recomputing exp/tanh: forward
  // produced it with the same expression, so the bits are the same.
  switch (activation) {
    case Activation::ReLU:
      for (std::size_t i = 0; i < n; ++i) d[i] = pre[i] <= 0.0f ? 0.0f : d[i];
      break;
    case Activation::Sigmoid:
      for (std::size_t i = 0; i < n; ++i) d[i] *= post[i] * (1.0f - post[i]);
      break;
    case Activation::Tanh:
      for (std::size_t i = 0; i < n; ++i) d[i] *= 1.0f - post[i] * post[i];
      break;
    case Activation::LeakyReLU:
      for (std::size_t i = 0; i < n; ++i) d[i] *= pre[i] <= 0.0f ? kLeakySlope : 1.0f;
      break;
    case Activation::Elu:
      // f'(z) = exp(z) for z <= 0. post + 1 == expm1(z) + 1 is not
      // bit-equal to exp(z), so this loop keeps its exp call.
      for (std::size_t i = 0; i < n; ++i) {
        if (pre[i] <= 0.0f) d[i] *= std::exp(pre[i]);
      }
      break;
    case Activation::Identity:
      break;
  }
}

void softmax_rows(const linalg::Matrix& z, linalg::Matrix& y) {
  match_shape(z, y);
  const std::size_t cols = z.cols();
  for (std::size_t r = 0; r < z.rows(); ++r) {
    const float* in = z.raw() + r * cols;
    float* out = y.raw() + r * cols;
    float max_v = in[0];
    for (std::size_t c = 1; c < cols; ++c) max_v = std::max(max_v, in[c]);
    float total = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) {
      out[c] = std::exp(in[c] - max_v);
      total += out[c];
    }
    const float inv = 1.0f / total;
    for (std::size_t c = 0; c < cols; ++c) out[c] *= inv;
  }
}

}  // namespace ecad::nn
