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
// Lane kernels: exp, sigmoid, tanh, ELU and the ELU gradient
// ---------------------------------------------------------------------------
//
// Two libm sources, transliterated to eight lanes at a time, so that the
// activations return the same bits on every host and ISA:
//
//  - fdlibm's s_expm1f.c and s_tanhf.c (the float versions glibc ships in
//    sysdeps/ieee754/flt-32) for tanh and ELU. Every branch of the C source
//    becomes a lane select, and each lane performs the same IEEE float
//    operations in the same order as the scalar code, so the results are
//    bit-identical to the scalar fdlibm functions on every input, NaN
//    payloads and signed zeros included. That requires this file to build
//    with -ffp-contract=off: the x86-64-v3/v4 clones have FMA, and
//    contracting a multiply-add would round once where fdlibm rounds twice.
//  - glibc 2.36's e_expf.c for exp (sigmoid, the ELU gradient, softmax). It
//    works in double, and glibc builds it twice and picks a variant by CPU;
//    the FMA variant fuses five multiply-adds. The lanes fuse exactly those
//    five with explicit fma calls, which -ffp-contract=off leaves alone, so
//    every clone returns the FMA variant's results. In the default clone
//    each fma is a libm call: exact, but slower than the host's expf.
//
// The scalar transliterations the lanes are tested against live in
// tests/nn/activation_test.cpp.

// The helpers take and return vectors by reference: a 32-byte vector passed
// by value has a different ABI in the SSE2 clone than in the AVX ones.
using F8 = float __attribute__((vector_size(32)));
using I8 = std::int32_t __attribute__((vector_size(32)));
using U8 = std::uint32_t __attribute__((vector_size(32)));
using D8 = double __attribute__((vector_size(64)));
using U64x8 = std::uint64_t __attribute__((vector_size(64)));
constexpr std::size_t kLanes = 8;

// e_expf.c's table (glibc's __exp2f_data.tab): entry i is the bits of the
// correctly rounded 2^(i/32) minus i << 47, so that adding k << 47 for
// k = 32·e + i yields 2^(k/32) with the exponent e already in place.
alignas(64) constexpr std::uint64_t kExp2Table[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

// r = a·b + c in each lane, rounded once. GCC turns the loop into vector
// FMA instructions in the x86-64-v3/v4 clones.
ECAD_ALWAYS_INLINE void fma_lanes(const D8& a, const D8& b, const D8& c, D8& r) {
  for (std::size_t i = 0; i < kLanes; ++i) r[i] = __builtin_fma(a[i], b[i], c[i]);
}

// t = kExp2Table[index] for indices in [0, 32).
ECAD_ALWAYS_INLINE void exp2_table_lanes(const U64x8& index, U64x8& t) {
#if defined(__GNUC__) && !defined(__clang__)
  // Two 16-entry shuffles and a select: one vpermt2q each on x86-64-v4.
  U64x8 quarter[4];
  std::memcpy(quarter, kExp2Table, sizeof(quarter));
  const U64x8 low = __builtin_shuffle(quarter[0], quarter[1], index);
  const U64x8 high = __builtin_shuffle(quarter[2], quarter[3], index);
  t = index < 16 ? low : high;
#else
  for (std::size_t i = 0; i < kLanes; ++i) t[i] = kExp2Table[index[i]];
#endif
}

// glibc e_expf.c: x·32/ln2 = k + r with integer k and |r| <= 1/2, then
// exp(x) = 2^(k/32) · 2^(r/32), the second factor a cubic in r. Lanes that
// glibc answers before the reduction (NaN, ±inf, overflow, underflow to 0)
// run it anyway and take their answer from the selects at the end.
ECAD_ALWAYS_INLINE void exp_lanes(const F8& x, F8& r) {
  constexpr double inv_ln2_n = 0x1.71547652b82fep+0 * 32;
  constexpr double shift = 0x1.8p+52;
  constexpr double C0 = 0x1.c6af84b912394p-5 / 32 / 32 / 32;
  constexpr double C1 = 0x1.ebfce50fac4f3p-3 / 32 / 32;
  constexpr double C2 = 0x1.62e42ff0c52d6p-1 / 32;
  const D8 dzero = {};
  const F8 zero = {};

  const D8 xd = __builtin_convertvector(x, D8);
  // Adding 1.5·2^52 rounds x·32/ln2 to the integer k held in kd's low
  // mantissa bits; shift - kd is -k exactly.
  D8 kd;
  fma_lanes(dzero + inv_ln2_n, xd, dzero + shift, kd);
  const U64x8 ki = reinterpret_cast<U64x8>(kd);
  const D8 neg_k = shift - kd;
  D8 red;
  fma_lanes(dzero + inv_ln2_n, xd, neg_k, red);

  U64x8 t;
  exp2_table_lanes(ki & 31, t);
  t += ki << 47;
  const D8 s = reinterpret_cast<D8>(t);
  D8 z;
  fma_lanes(dzero + C0, red, dzero + C1, z);
  const D8 r2 = red * red;
  D8 y;
  fma_lanes(dzero + C2, red, dzero + 1.0, y);
  fma_lanes(z, r2, y, y);
  y *= s;

  r = __builtin_convertvector(y, F8);
  r = x < -0x1.9fe368p6f ? zero : r;             // below log(2^-150), -inf included
  r = x > 0x1.62e42ep6f ? zero + HUGE_VALF : r;  // above log(2^128), +inf included
  r = x != x ? x + x : r;                        // NaN
}

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

enum class Kernel { Exp, Sigmoid, Tanh, Elu, EluGradient };

// v = f(x) for the activations; for the ELU gradient v is the incoming
// delta, scaled where x <= 0.
template <Kernel kKernel>
ECAD_ALWAYS_INLINE void kernel_lanes(const F8& x, F8& v) {
  F8 r;
  if constexpr (kKernel == Kernel::Exp) {
    exp_lanes(x, r);
  } else if constexpr (kKernel == Kernel::Sigmoid) {
    exp_lanes(-x, r);
    r = 1.0f / (1.0f + r);
  } else if constexpr (kKernel == Kernel::Tanh) {
    tanh_lanes(x, r);
  } else if constexpr (kKernel == Kernel::Elu) {
    expm1_lanes(x, r);
    r = x > 0.0f ? x : r;
  } else {
    // f'(z) = exp(z) for z <= 0. a + 1 == expm1(z) + 1 is not bit-equal
    // to exp(z), so the gradient runs the exp kernel on z.
    exp_lanes(x, r);
    r = x <= 0.0f ? v * r : v;
  }
  v = r;
}

// Runs kernel_lanes over in[0, n) and out[0, n); a ragged tail runs as one
// zero-padded vector. `out` may alias `in`.
template <Kernel kKernel>
ECAD_ALWAYS_INLINE void map_lanes(const float* in, float* out, std::size_t n) {
  constexpr bool reads_out = kKernel == Kernel::EluGradient;
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    F8 x;
    F8 v = {};
    std::memcpy(&x, in + i, sizeof(x));
    if constexpr (reads_out) std::memcpy(&v, out + i, sizeof(v));
    kernel_lanes<kKernel>(x, v);
    std::memcpy(out + i, &v, sizeof(v));
  }
  if (i < n) {
    F8 x = {};
    F8 v = {};
    std::memcpy(&x, in + i, (n - i) * sizeof(float));
    if constexpr (reads_out) std::memcpy(&v, out + i, (n - i) * sizeof(float));
    kernel_lanes<kKernel>(x, v);
    std::memcpy(out + i, &v, (n - i) * sizeof(float));
  }
}

ECAD_TARGET_CLONES
void run_kernel(Kernel kernel, const float* in, float* out, std::size_t n) {
  switch (kernel) {
    case Kernel::Exp: map_lanes<Kernel::Exp>(in, out, n); break;
    case Kernel::Sigmoid: map_lanes<Kernel::Sigmoid>(in, out, n); break;
    case Kernel::Tanh: map_lanes<Kernel::Tanh>(in, out, n); break;
    case Kernel::Elu: map_lanes<Kernel::Elu>(in, out, n); break;
    case Kernel::EluGradient: map_lanes<Kernel::EluGradient>(in, out, n); break;
  }
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
    case Activation::Sigmoid: run_kernel(Kernel::Sigmoid, &z, &z, 1); return z;
    case Activation::Tanh: run_kernel(Kernel::Tanh, &z, &z, 1); return z;
    case Activation::LeakyReLU: return z > 0.0f ? z : kLeakySlope * z;
    case Activation::Elu: run_kernel(Kernel::Elu, &z, &z, 1); return z;
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
      run_kernel(Kernel::Sigmoid, in, out, n);
      break;
    case Activation::Tanh:
      run_kernel(Kernel::Tanh, in, out, n);
      break;
    case Activation::LeakyReLU:
      for (std::size_t i = 0; i < n; ++i) out[i] = in[i] > 0.0f ? in[i] : kLeakySlope * in[i];
      break;
    case Activation::Elu:
      run_kernel(Kernel::Elu, in, out, n);
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
  // Every loop is branch-free so it vectorizes; ELU's runs the exp kernel.
  // Sigmoid and Tanh read f(z) back from `post` instead of recomputing
  // exp/tanh: forward produced it with the same expression, so the bits
  // are the same.
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
      run_kernel(Kernel::EluGradient, pre, d, n);
      break;
    case Activation::Identity:
      break;
  }
}

void exp_array(const float* in, float* out, std::size_t n) {
  run_kernel(Kernel::Exp, in, out, n);
}

void softmax_rows(const linalg::Matrix& z, linalg::Matrix& y) {
  match_shape(z, y);
  const std::size_t cols = z.cols();
  // Shift every row by its max, exponentiate the whole matrix in one pass,
  // then normalize each row, summing in column order.
  for (std::size_t r = 0; r < z.rows(); ++r) {
    const float* in = z.raw() + r * cols;
    float* out = y.raw() + r * cols;
    float max_v = in[0];
    for (std::size_t c = 1; c < cols; ++c) max_v = std::max(max_v, in[c]);
    for (std::size_t c = 0; c < cols; ++c) out[c] = in[c] - max_v;
  }
  exp_array(y.raw(), y.raw(), y.size());
  for (std::size_t r = 0; r < y.rows(); ++r) {
    float* out = y.raw() + r * cols;
    float total = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) total += out[c];
    const float inv = 1.0f / total;
    for (std::size_t c = 0; c < cols; ++c) out[c] *= inv;
  }
}

}  // namespace ecad::nn
