#include "linalg/gemm_packed.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "util/logging.h"
#include "util/string_util.h"
#include "util/target_clones.h"

#if ECAD_HAS_TARGET_CLONES
#include <immintrin.h>
#elif defined(__SSE2__)
#include <xmmintrin.h>
#endif

namespace ecad::linalg {

// ---------------------------------------------------------------------------
// Kernel selection
// ---------------------------------------------------------------------------

GemmKernel parse_gemm_kernel(const std::string& name) {
  const std::string lower = util::to_lower(name);
  if (lower == "packed") return GemmKernel::Packed;
  if (lower == "blocked") return GemmKernel::Blocked;
  if (lower == "naive") return GemmKernel::Naive;
  throw std::invalid_argument("parse_gemm_kernel: unknown kernel '" + name +
                              "' (expected packed|blocked|naive)");
}

const char* to_string(GemmKernel kernel) {
  switch (kernel) {
    case GemmKernel::Packed: return "packed";
    case GemmKernel::Blocked: return "blocked";
    case GemmKernel::Naive: return "naive";
  }
  return "?";
}

namespace {

GemmKernel kernel_from_env() {
  const char* env = std::getenv("ECAD_GEMM_KERNEL");
  if (env == nullptr || *env == '\0') return GemmKernel::Packed;
  try {
    return parse_gemm_kernel(env);
  } catch (const std::invalid_argument&) {
    util::Log(util::LogLevel::Warn, "linalg")
        << "ECAD_GEMM_KERNEL='" << env << "' not recognized; using 'packed'";
    return GemmKernel::Packed;
  }
}

std::atomic<GemmKernel>& kernel_slot() {
  static std::atomic<GemmKernel> slot{kernel_from_env()};
  return slot;
}

}  // namespace

GemmKernel active_gemm_kernel() { return kernel_slot().load(std::memory_order_relaxed); }

void set_gemm_kernel(GemmKernel kernel) {
  kernel_slot().store(kernel, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

namespace detail {
namespace {

inline std::size_t round_up(std::size_t value, std::size_t multiple) {
  return (value + multiple - 1) / multiple * multiple;
}

// Writes one packed strip: row p (p < kc) takes `width` elements spaced
// `across` apart from src + p·along, zero-padded to kStrip floats. Full
// strips copy a fixed kStrip floats per row: one constant-size copy when
// contiguous, 4×4 register transposes when the source runs along p (a
// row-major A, a transposed B), an unrolled gather otherwise. Only a ragged
// edge strip runs the variable-width loop.
template <std::size_t kStrip>
void pack_strip(const float* src, std::size_t along, std::size_t across, std::size_t width,
                std::size_t kc, float* out) {
  if (width == kStrip && across == 1) {
    for (std::size_t p = 0; p < kc; ++p) {
      std::memcpy(out + p * kStrip, src + p * along, kStrip * sizeof(float));
    }
  } else if (width == kStrip) {
    std::size_t p = 0;
#if defined(__SSE2__)
    static_assert(kStrip % 4 == 0, "a full strip is whole 4×4 blocks");
    if (along == 1) {
      for (; p + 4 <= kc; p += 4) {
        for (std::size_t j = 0; j < kStrip; j += 4) {
          const float* s = src + j * across + p;
          __m128 r0 = _mm_loadu_ps(s), r1 = _mm_loadu_ps(s + across);
          __m128 r2 = _mm_loadu_ps(s + 2 * across), r3 = _mm_loadu_ps(s + 3 * across);
          _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
          float* d = out + p * kStrip + j;
          _mm_storeu_ps(d, r0);
          _mm_storeu_ps(d + kStrip, r1);
          _mm_storeu_ps(d + 2 * kStrip, r2);
          _mm_storeu_ps(d + 3 * kStrip, r3);
        }
      }
    }
#endif
    for (; p < kc; ++p) {
      const float* row = src + p * along;
      float* dst = out + p * kStrip;
#if defined(__GNUC__)
#pragma GCC unroll 8
#endif
      for (std::size_t j = 0; j < kStrip; ++j) dst[j] = row[j * across];
    }
  } else {
    for (std::size_t p = 0; p < kc; ++p) {
      const float* row = src + p * along;
      float* dst = out + p * kStrip;
      for (std::size_t j = 0; j < width; ++j) dst[j] = row[j * across];
      for (std::size_t j = width; j < kStrip; ++j) dst[j] = 0.0f;
    }
  }
}

// Packs column strips [j_begin, j_end) of rows [pc, pc+kc) of logical B into
// the panel at `panel_out`: strip j0 holds columns [j0, j0+kNR) as kc
// contiguous rows of kNR floats, zero-padded past b.cols, at panel offset
// (j0/kNR)·kc·kNR.  `j_begin` must be kNR-aligned.  Strips are disjoint in
// the output, so distinct ranges of one panel can be packed concurrently.
void pack_b_panel_strips(const MatView& b, std::size_t pc, std::size_t kc, std::size_t j_begin,
                         std::size_t j_end, float* panel_out) {
  for (std::size_t j0 = j_begin; j0 < j_end; j0 += kNR) {
    pack_strip<kNR>(b.data + pc * b.row_stride + j0 * b.col_stride, b.row_stride, b.col_stride,
                    std::min(kNR, b.cols - j0), kc, panel_out + (j0 / kNR) * kc * kNR);
  }
}

/// Whole panel: rows [pc, pc+kc), all column strips.
/// Output occupies kc * round_up(b.cols, kNR) floats.
void pack_b_panel(const MatView& b, std::size_t pc, std::size_t kc, float* out) {
  pack_b_panel_strips(b, pc, kc, 0, b.cols, out);
}

}  // namespace

void pack_a_block(const MatView& a, std::size_t ic, std::size_t mc, std::size_t pc,
                  std::size_t kc, float* out) {
  for (std::size_t i0 = 0; i0 < mc; i0 += kMR) {
    pack_strip<kMR>(a.data + (ic + i0) * a.row_stride + pc * a.col_stride, a.col_stride,
                    a.row_stride, std::min(kMR, mc - i0), kc, out + (i0 / kMR) * kc * kMR);
  }
}

namespace {

// ---------------------------------------------------------------------------
// Register tiles + macrokernel
// ---------------------------------------------------------------------------
//
// Every element of C gets the same arithmetic whichever tile computes it: a
// sum from +0 over the panel's k in order, one multiply-add per step, then
// one add into C per KC panel. The multiply-add is fused (one rounding) in
// the x86-64-v3/v4 kernels and is a multiply then an add (two roundings) in
// the baseline one. This file builds with -ffp-contract=off, so the
// compiler never fuses on its own and the policy below is the only choice.
//
// Helpers take vectors by reference: a 32-byte vector passed by value has a
// different ABI in the SSE2 code than in the AVX code (-Wpsabi).

using F8 = float __attribute__((vector_size(32)));
static_assert(sizeof(F8) == kNR * sizeof(float), "one F8 holds one B strip row");
static_assert(kMR == kNR, "a column tile's lanes are the A strip's rows");

ECAD_ALWAYS_INLINE void load8(const float* p, F8& v) { std::memcpy(&v, p, sizeof(F8)); }
ECAD_ALWAYS_INLINE void store8(const F8& v, float* p) { std::memcpy(p, &v, sizeof(F8)); }

// The multiply-add policies: broadcast(x, v) sets every lane of v to x, and
// madd(a, b, acc) computes acc += a·b in each lane.
struct MulAdd {
  ECAD_ALWAYS_INLINE static void broadcast(float x, F8& v) { v = F8{x, x, x, x, x, x, x, x}; }
  ECAD_ALWAYS_INLINE static void madd(const F8& a, const F8& b, F8& acc) { acc += a * b; }
};

#if ECAD_HAS_TARGET_CLONES
// The AVX2 forms: one FMA instruction, one vbroadcastss (a broadcast built
// in baseline code lowers to lane-by-lane inserts). These helpers cannot be
// always_inline, since the tile templates that call them are compiled for
// the baseline ISA before they are inlined; the flatten attribute of the
// kernels below inlines them.
struct FusedMulAdd {
  __attribute__((target("avx2,fma"))) static void broadcast(float x, F8& v) {
    v = _mm256_set1_ps(x);
  }
  __attribute__((target("avx2,fma"))) static void madd(const F8& a, const F8& b, F8& acc) {
    acc = _mm256_fmadd_ps(a, b, acc);
  }
};
#endif

// c = acc (+0 first, when C's old value is discarded) or c + acc.
ECAD_ALWAYS_INLINE void add_into(bool overwrite, const F8& acc, F8& c) {
  c = (overwrite ? F8{} : c) + acc;
}

// R ≤ kMR rows × kNR columns: one accumulator per row of the packed A strip,
// in registers, each lane a column of the packed B strip.
template <typename Madd, std::size_t R>
ECAD_ALWAYS_INLINE void row_tile(std::size_t kc, const float* a_strip, const float* b_strip,
                                 bool overwrite, float* c, std::size_t ldc) {
  F8 acc[R] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    F8 b;
    load8(b_strip + p * kNR, b);
#if defined(__GNUC__)
#pragma GCC unroll 8
#endif
    for (std::size_t r = 0; r < R; ++r) {
      F8 a;
      Madd::broadcast(a_strip[p * kMR + r], a);
      Madd::madd(a, b, acc[r]);
    }
  }
#if defined(__GNUC__)
#pragma GCC unroll 8
#endif
  for (std::size_t r = 0; r < R; ++r) {
    F8 row;
    if (!overwrite) load8(c + r * ldc, row);
    add_into(overwrite, acc[r], row);
    store8(row, c + r * ldc);
  }
}

// Strips of the column tile for W columns: enough independent accumulators
// (S·W ≥ 8, at most 4 strips) to cover the multiply-add latency.
constexpr std::size_t column_tile_strips(std::size_t w) {
  return std::min<std::size_t>(4, (kMR + w - 1) / w);
}

// S packed A strips (S·kMR rows, a_step floats apart) × W < kNR columns, for
// the narrow class layer and ragged right edges: one accumulator per strip
// and column, each lane a row, so a k step costs S·W multiply-adds instead of
// S·kNR. Stored through a transpose; only the first `rows` rows are C's.
template <typename Madd, std::size_t S, std::size_t W>
ECAD_ALWAYS_INLINE void column_tile(std::size_t kc, const float* a, std::size_t a_step,
                                    const float* b_strip, std::size_t rows, bool overwrite,
                                    float* c, std::size_t ldc) {
  F8 acc[S][W] = {};
  for (std::size_t p = 0; p < kc; ++p) {
#if defined(__GNUC__)
#pragma GCC unroll 8
#endif
    for (std::size_t j = 0; j < W; ++j) {
      F8 b;
      Madd::broadcast(b_strip[p * kNR + j], b);
#if defined(__GNUC__)
#pragma GCC unroll 8
#endif
      for (std::size_t s = 0; s < S; ++s) {
        F8 av;
        load8(a + s * a_step + p * kMR, av);
        Madd::madd(av, b, acc[s][j]);
      }
    }
  }
  float tile[S][W][kMR];
  for (std::size_t s = 0; s < S; ++s) {
    for (std::size_t j = 0; j < W; ++j) store8(acc[s][j], tile[s][j]);
  }
  for (std::size_t i = 0; i < rows; ++i) {
    float* c_row = c + i * ldc;
    const float(&t)[W][kMR] = tile[i / kMR];
    for (std::size_t j = 0; j < W; ++j) {
      c_row[j] = (overwrite ? 0.0f : c_row[j]) + t[j][i % kMR];
    }
  }
}

// The row tile for R = rows ≤ kMR.
template <typename Madd, std::size_t R = kMR>
ECAD_ALWAYS_INLINE void row_tile_upto(std::size_t rows, std::size_t kc, const float* a_strip,
                                      const float* b_strip, bool overwrite, float* c,
                                      std::size_t ldc) {
  if constexpr (R > 1) {
    if (rows < R) {
      row_tile_upto<Madd, R - 1>(rows, kc, a_strip, b_strip, overwrite, c, ldc);
      return;
    }
  }
  row_tile<Madd, R>(kc, a_strip, b_strip, overwrite, c, ldc);
}

// The column tiles of one W-wide strip of C: S strips at a time, then one.
template <typename Madd, std::size_t W>
ECAD_ALWAYS_INLINE void column_tiles(std::size_t mc, std::size_t kc, const float* packed_a,
                                     const float* b_strip, bool overwrite, float* c,
                                     std::size_t ldc) {
  constexpr std::size_t S = column_tile_strips(W);
  const std::size_t a_step = kc * kMR;
  std::size_t i0 = 0;
  for (; i0 + S * kMR <= round_up(mc, kMR); i0 += S * kMR) {
    column_tile<Madd, S, W>(kc, packed_a + (i0 / kMR) * a_step, a_step, b_strip,
                            std::min(S * kMR, mc - i0), overwrite, c + i0 * ldc, ldc);
  }
  for (; i0 < mc; i0 += kMR) {
    column_tile<Madd, 1, W>(kc, packed_a + (i0 / kMR) * a_step, a_step, b_strip,
                            std::min(kMR, mc - i0), overwrite, c + i0 * ldc, ldc);
  }
}

// The column tiles for W = cols < kNR.
template <typename Madd, std::size_t W = kNR - 1>
ECAD_ALWAYS_INLINE void column_tiles_upto(std::size_t cols, std::size_t mc, std::size_t kc,
                                          const float* packed_a, const float* b_strip,
                                          bool overwrite, float* c, std::size_t ldc) {
  if constexpr (W > 1) {
    if (cols < W) {
      column_tiles_upto<Madd, W - 1>(cols, mc, kc, packed_a, b_strip, overwrite, c, ldc);
      return;
    }
  }
  column_tiles<Madd, W>(mc, kc, packed_a, b_strip, overwrite, c, ldc);
}

template <typename Madd>
ECAD_ALWAYS_INLINE void macro_tiles(std::size_t mc, std::size_t n, std::size_t kc,
                                    const float* packed_a, const float* packed_b,
                                    bool overwrite, float* c, std::size_t ldc) {
  for (std::size_t j0 = 0; j0 < n; j0 += kNR) {
    const std::size_t jw = std::min(kNR, n - j0);
    const float* b_strip = packed_b + (j0 / kNR) * kc * kNR;
    if (jw < kNR) {
      column_tiles_upto<Madd>(jw, mc, kc, packed_a, b_strip, overwrite, c + j0, ldc);
      continue;
    }
    for (std::size_t i0 = 0; i0 < mc; i0 += kMR) {
      row_tile_upto<Madd>(std::min(kMR, mc - i0), kc, packed_a + (i0 / kMR) * kc * kMR,
                          b_strip, overwrite, c + i0 * ldc + j0, ldc);
    }
  }
}

// One packed A block (mc rows) × one packed B panel (kc × n) into C.
// `overwrite` replaces C (0 + the panel's sum) instead of adding into it.
//
// The kernel is built three times and picked by CPU, like ECAD_TARGET_CLONES
// would, but by hand: a target_clones function also compiles its body for
// the baseline ISA, where the FMA instructions do not exist.
using MacroKernel = void (*)(std::size_t mc, std::size_t n, std::size_t kc,
                             const float* packed_a, const float* packed_b, bool overwrite,
                             float* c, std::size_t ldc);

void macro_kernel_baseline(std::size_t mc, std::size_t n, std::size_t kc, const float* packed_a,
                           const float* packed_b, bool overwrite, float* c, std::size_t ldc) {
  macro_tiles<MulAdd>(mc, n, kc, packed_a, packed_b, overwrite, c, ldc);
}

#if ECAD_HAS_TARGET_CLONES
__attribute__((target("arch=x86-64-v3"), flatten)) void macro_kernel_v3(
    std::size_t mc, std::size_t n, std::size_t kc, const float* packed_a, const float* packed_b,
    bool overwrite, float* c, std::size_t ldc) {
  macro_tiles<FusedMulAdd>(mc, n, kc, packed_a, packed_b, overwrite, c, ldc);
}

__attribute__((target("arch=x86-64-v4"), flatten)) void macro_kernel_v4(
    std::size_t mc, std::size_t n, std::size_t kc, const float* packed_a, const float* packed_b,
    bool overwrite, float* c, std::size_t ldc) {
  macro_tiles<FusedMulAdd>(mc, n, kc, packed_a, packed_b, overwrite, c, ldc);
}
#endif

// The host's kernel, chosen once, in the order an ifunc resolver would.
MacroKernel macro_kernel() {
  static const MacroKernel kernel = [] {
#if ECAD_HAS_TARGET_CLONES
    __builtin_cpu_init();
    if (__builtin_cpu_supports("x86-64-v4")) return &macro_kernel_v4;
    if (__builtin_cpu_supports("x86-64-v3")) return &macro_kernel_v3;
#endif
    return &macro_kernel_baseline;
  }();
  return kernel;
}

// The calling thread's packing buffers. `parallel_b` is the B that the
// shards of gemm_packed_parallel share; the calling thread only waits in
// parallel_for while they read it.
struct ThreadScratch {
  PackBuffer a, b;
  PackedB parallel_b;
};

ThreadScratch& thread_scratch() {
  thread_local ThreadScratch scratch;
  return scratch;
}

void zero_rows(Matrix& c, std::size_t row_begin, std::size_t row_end) {
  std::memset(c.raw() + row_begin * c.cols(), 0,
              (row_end - row_begin) * c.cols() * sizeof(float));
}

// Multiplies rows [ic0, ic1) of logical A by B into the same rows of C,
// which is replaced unless `accumulate`. `packed_b_at(pc)` returns the
// packed B panel for K rows [pc, pc+kKC).
template <typename PanelFn>
void run_row_range(const MatView& a, std::size_t ic0, std::size_t ic1, std::size_t n,
                   Matrix& c, bool accumulate, const PanelFn& packed_b_at) {
  const std::size_t k = a.cols;
  const std::size_t ldc = c.cols();
  const MacroKernel kernel = macro_kernel();
  float* packed_a =
      thread_scratch().a.reserve(round_up(std::min(kMC, ic1 - ic0), kMR) * std::min(kKC, k));
  for (std::size_t ic = ic0; ic < ic1; ic += kMC) {
    const std::size_t mc = std::min(kMC, ic1 - ic);
    for (std::size_t pc = 0; pc < k; pc += kKC) {
      const std::size_t kc = std::min(kKC, k - pc);
      pack_a_block(a, ic, mc, pc, kc, packed_a);
      kernel(mc, n, kc, packed_a, packed_b_at(pc), !accumulate && pc == 0, c.raw() + ic * ldc,
             ldc);
    }
  }
}

// Handles the shapes with no multiply-add: C is zeroed or left as it is.
bool empty_product(const MatView& a, std::size_t n, Matrix& c, bool accumulate) {
  if (a.rows != 0 && n != 0 && a.cols != 0) return false;
  if (!accumulate) zero_rows(c, 0, a.rows);
  return true;
}

}  // namespace

void gemm_packed(const MatView& a, const MatView& b, Matrix& c, bool accumulate) {
  const std::size_t k = a.cols;
  const std::size_t n = b.cols;
  if (empty_product(a, n, c, accumulate)) return;
  const MacroKernel kernel = macro_kernel();
  ThreadScratch& scratch = thread_scratch();
  float* packed_b = scratch.b.reserve(round_up(n, kNR) * std::min(kKC, k));
  float* packed_a = scratch.a.reserve(round_up(std::min(kMC, a.rows), kMR) * std::min(kKC, k));
  // K panels outermost so each B panel is packed exactly once.
  for (std::size_t pc = 0; pc < k; pc += kKC) {
    const std::size_t kc = std::min(kKC, k - pc);
    pack_b_panel(b, pc, kc, packed_b);
    for (std::size_t ic = 0; ic < a.rows; ic += kMC) {
      const std::size_t mc = std::min(kMC, a.rows - ic);
      pack_a_block(a, ic, mc, pc, kc, packed_a);
      kernel(mc, n, kc, packed_a, packed_b, !accumulate && pc == 0, c.raw() + ic * c.cols(),
             c.cols());
    }
  }
}

void gemm_packed_prepacked(const MatView& a, const PackedB& b, Matrix& c, bool accumulate) {
  if (empty_product(a, b.cols(), c, accumulate)) return;
  run_row_range(a, 0, a.rows, b.cols(), c, accumulate,
                [&](std::size_t pc) { return b.panel(pc); });
}

void gemm_packed_parallel(const MatView& a, const MatView& b, Matrix& c,
                          util::ThreadPool& pool, bool accumulate) {
  const std::size_t m = a.rows;
  // Shard rows in kMR-aligned slabs; a slab per pool slot ×4 balances tails.
  const std::size_t max_shards = std::max<std::size_t>(1, pool.size() * 4);
  const std::size_t slabs = (m + kMR - 1) / kMR;
  const std::size_t shards = std::min(slabs, max_shards);
  if (shards <= 1 || a.cols == 0 || b.cols == 0) {
    gemm_packed(a, b, c, accumulate);
    return;
  }
  // Pack the shared B once up front (read-only for all shards), using the
  // pool for the packing itself — serial packing here was the driver's
  // remaining sequential phase.
  PackedB& packed_b = thread_scratch().parallel_b;
  packed_b.pack_view_parallel(b, pool);
  const std::size_t rows_per_shard = round_up((m + shards - 1) / shards, kMR);
  pool.parallel_for(shards, [&](std::size_t s) {
    const std::size_t ic0 = s * rows_per_shard;
    const std::size_t ic1 = std::min(ic0 + rows_per_shard, m);
    if (ic0 >= ic1) return;
    run_row_range(a, ic0, ic1, packed_b.cols(), c, accumulate,
                  [&](std::size_t pc) { return packed_b.panel(pc); });
  });
}

}  // namespace detail

// ---------------------------------------------------------------------------
// PackedB
// ---------------------------------------------------------------------------

void PackedB::pack(const Matrix& b, bool transpose) {
  pack_view(transpose ? detail::MatView::transposed(b) : detail::MatView::normal(b));
}

void PackedB::pack_view(const detail::MatView& b) {
  k_ = b.rows;
  n_ = b.cols;
  padded_n_ = (n_ + detail::kNR - 1) / detail::kNR * detail::kNR;
  float* out = storage_.reserve(k_ * padded_n_);
  for (std::size_t pc = 0; pc < k_; pc += detail::kKC) {
    const std::size_t kc = std::min(detail::kKC, k_ - pc);
    detail::pack_b_panel(b, pc, kc, out + pc * padded_n_);
  }
}

void PackedB::pack_view_parallel(const detail::MatView& b, util::ThreadPool& pool) {
  k_ = b.rows;
  n_ = b.cols;
  padded_n_ = (n_ + detail::kNR - 1) / detail::kNR * detail::kNR;
  float* out = storage_.reserve(k_ * padded_n_);
  if (k_ == 0 || n_ == 0) return;
  const std::size_t panels = (k_ + detail::kKC - 1) / detail::kKC;
  const std::size_t strips = padded_n_ / detail::kNR;
  // Panels alone under-parallelize (512³ has only two), so also split each
  // panel's strip range; ~4 tasks per thread balances the tail.
  const std::size_t want_tasks = std::max(pool.size() * 4, panels);
  std::size_t chunks_per_panel = std::max<std::size_t>(1, (want_tasks + panels - 1) / panels);
  chunks_per_panel = std::min(chunks_per_panel, strips);
  const std::size_t chunk_strips = (strips + chunks_per_panel - 1) / chunks_per_panel;
  if (panels * chunks_per_panel <= 1) {
    detail::pack_b_panel(b, 0, k_, out);
    return;
  }
  pool.parallel_for(panels * chunks_per_panel, [&](std::size_t task) {
    const std::size_t panel = task / chunks_per_panel;
    const std::size_t chunk = task % chunks_per_panel;
    const std::size_t pc = panel * detail::kKC;
    const std::size_t kc = std::min(detail::kKC, k_ - pc);
    const std::size_t j_begin = chunk * chunk_strips * detail::kNR;
    if (j_begin >= n_) return;
    const std::size_t j_end = std::min(n_, j_begin + chunk_strips * detail::kNR);
    detail::pack_b_panel_strips(b, pc, kc, j_begin, j_end, out + pc * padded_n_);
  });
}

void gemm_prepacked(const Matrix& a, const PackedB& b, Matrix& c, bool accumulate) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("gemm_prepacked: inner dimensions differ (" +
                                std::to_string(a.cols()) + " vs " + std::to_string(b.rows()) +
                                ")");
  }
  if (c.rows() != a.rows() || c.cols() != b.cols()) {
    throw std::invalid_argument("gemm_prepacked: output shape mismatch (" +
                                std::to_string(c.rows()) + "x" + std::to_string(c.cols()) +
                                " vs expected " + std::to_string(a.rows()) + "x" +
                                std::to_string(b.cols()) + ")");
  }
  detail::gemm_packed_prepacked(detail::MatView::normal(a), b, c, accumulate);
}

}  // namespace ecad::linalg
