// Property tests for the packed register-blocked GEMM backend: the packed
// driver (all four operand orientations), the prepacked-B path, the parallel
// driver across 1–8 threads, and kernel selection — all validated against
// the gemm_naive oracle over odd/ragged shapes.
#include "linalg/gemm_packed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "linalg/gemm.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ecad::linalg {
namespace {

Matrix random(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  util::Rng rng(seed);
  return Matrix::random_uniform(rows, cols, rng);
}

/// Forces a kernel for the test's scope and restores the previous selection.
class KernelGuard {
 public:
  explicit KernelGuard(GemmKernel kernel) : previous_(active_gemm_kernel()) {
    set_gemm_kernel(kernel);
  }
  ~KernelGuard() { set_gemm_kernel(previous_); }

 private:
  GemmKernel previous_;
};

// Shapes chosen to stress every edge of the tiling: unit dims, primes below
// and above the register tile (MR=NR=8), exact multiples, and K spanning
// more than one KC=256 panel.
const std::vector<std::array<std::size_t, 3>>& ragged_shapes() {
  static const std::vector<std::array<std::size_t, 3>> shapes = {
      {1, 1, 1},   {1, 7, 1},    {5, 1, 3},    {7, 11, 13},  {8, 8, 8},
      {9, 17, 23}, {16, 31, 8},  {29, 37, 41}, {64, 64, 64}, {33, 129, 65},
      {1, 300, 1}, {100, 1, 97}, {3, 521, 5},  {40, 277, 31}};
  return shapes;
}

TEST(GemmPacked, RandomizedShapesMatchNaiveOracle) {
  KernelGuard guard(GemmKernel::Packed);
  util::Rng rng(12345);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t m = static_cast<std::size_t>(rng.next_int(1, 90));
    const std::size_t k = static_cast<std::size_t>(rng.next_int(1, 300));
    const std::size_t n = static_cast<std::size_t>(rng.next_int(1, 90));
    const Matrix a = random(m, k, trial * 3 + 1);
    const Matrix b = random(k, n, trial * 3 + 2);
    Matrix expected(m, n), actual(m, n);
    gemm_naive(a, b, expected);
    gemm_blocked(a, b, actual);
    EXPECT_TRUE(actual.approx_equal(expected, 1e-3f))
        << "m=" << m << " k=" << k << " n=" << n;
  }
}

TEST(GemmPacked, RaggedShapesWithAndWithoutAccumulate) {
  KernelGuard guard(GemmKernel::Packed);
  for (const auto& [m, k, n] : ragged_shapes()) {
    const Matrix a = random(m, k, m * 131 + k);
    const Matrix b = random(k, n, n * 151 + 7);
    const Matrix seed = random(m, n, 999);
    for (const bool accumulate : {false, true}) {
      Matrix expected = seed, actual = seed;
      gemm_naive(a, b, expected, accumulate);
      gemm_blocked(a, b, actual, accumulate);
      EXPECT_TRUE(actual.approx_equal(expected, 1e-3f))
          << "m=" << m << " k=" << k << " n=" << n << " accumulate=" << accumulate;
    }
  }
}

TEST(GemmPacked, TransposedProductsMatchNaiveOracle) {
  KernelGuard guard(GemmKernel::Packed);
  for (const auto& [m, k, n] : ragged_shapes()) {
    // gemm_at: C (k×n) = aᵀ·b with a (m×k), b (m×n).
    const Matrix a = random(m, k, 41);
    const Matrix b = random(m, n, 43);
    for (const bool accumulate : {false, true}) {
      Matrix expected = random(k, n, 7), actual = expected;
      gemm_naive(a.transposed(), b, expected, accumulate);
      gemm_at(a, b, actual, accumulate);
      EXPECT_TRUE(actual.approx_equal(expected, 1e-3f))
          << "at m=" << m << " k=" << k << " n=" << n;
    }
    // gemm_bt: C (m×n) = a·bᵀ with a (m×k), b (n×k).
    const Matrix a2 = random(m, k, 47);
    const Matrix b2 = random(n, k, 53);
    for (const bool accumulate : {false, true}) {
      Matrix expected = random(m, n, 11), actual = expected;
      gemm_naive(a2, b2.transposed(), expected, accumulate);
      gemm_bt(a2, b2, actual, accumulate);
      EXPECT_TRUE(actual.approx_equal(expected, 1e-3f))
          << "bt m=" << m << " k=" << k << " n=" << n;
    }
  }
}

TEST(GemmPacked, ParallelMatchesNaiveAcrossThreadCounts) {
  KernelGuard guard(GemmKernel::Packed);
  const std::size_t m = 83, k = 67, n = 59;
  const Matrix a = random(m, k, 61);
  const Matrix b = random(k, n, 67);
  Matrix expected(m, n);
  gemm_naive(a, b, expected);
  for (std::size_t threads = 1; threads <= 8; ++threads) {
    util::ThreadPool pool(threads);
    Matrix actual(m, n);
    gemm_parallel(a, b, actual, pool);
    EXPECT_TRUE(actual.approx_equal(expected, 1e-3f)) << "threads=" << threads;
    // Accumulate path too: result should be exactly one extra product added.
    gemm_parallel(a, b, actual, pool, /*accumulate=*/true);
    Matrix doubled(m, n);
    gemm_naive(a, b, doubled);
    gemm_naive(a, b, doubled, /*accumulate=*/true);
    EXPECT_TRUE(actual.approx_equal(doubled, 1e-3f)) << "threads=" << threads;
  }
}

TEST(GemmPacked, PrepackedMatchesAndSurvivesRepack) {
  const Matrix a = random(17, 201, 71);
  const Matrix b = random(201, 19, 73);
  Matrix expected(17, 19), actual(17, 19);
  gemm_naive(a, b, expected);
  PackedB packed;
  packed.pack(b);
  EXPECT_EQ(packed.rows(), 201u);
  EXPECT_EQ(packed.cols(), 19u);
  gemm_prepacked(a, packed, actual);
  EXPECT_TRUE(actual.approx_equal(expected, 1e-3f));

  // Repacking a different operand reuses the object.
  const Matrix b2 = random(64, 40, 79);
  const Matrix a2 = random(8, 64, 83);
  packed.pack(b2);
  Matrix expected2(8, 40), actual2(8, 40);
  gemm_naive(a2, b2, expected2);
  gemm_prepacked(a2, packed, actual2);
  EXPECT_TRUE(actual2.approx_equal(expected2, 1e-3f));
}

TEST(GemmPacked, PrepackedTransposeMatchesExplicitTranspose) {
  const Matrix w = random(48, 31, 89);  // logical B = wᵀ (31×48)
  const Matrix a = random(9, 31, 97);
  PackedB packed;
  packed.pack(w, /*transpose=*/true);
  EXPECT_EQ(packed.rows(), 31u);
  EXPECT_EQ(packed.cols(), 48u);
  Matrix expected(9, 48), actual(9, 48);
  gemm_naive(a, w.transposed(), expected);
  gemm_prepacked(a, packed, actual);
  EXPECT_TRUE(actual.approx_equal(expected, 1e-3f));
}

TEST(GemmPacked, PrepackedShapeMismatchThrows) {
  PackedB packed;
  packed.pack(random(4, 4, 1));
  Matrix c(3, 4);
  EXPECT_THROW(gemm_prepacked(random(3, 5, 2), packed, c), std::invalid_argument);
  Matrix bad(3, 5);
  EXPECT_THROW(gemm_prepacked(random(3, 4, 2), packed, bad), std::invalid_argument);
}

TEST(GemmPacked, ParallelPackingIsBitIdenticalToSerial) {
  // The parallel driver's B panels are packed across the pool; the layout
  // must be byte-identical to the serial packer for every ragged shape and
  // thread count (disjoint-region writes, no seams at chunk boundaries).
  for (const auto& [m, k, n] : ragged_shapes()) {
    (void)m;
    const Matrix b = random(k, n, k * 977 + n);
    PackedB serial;
    serial.pack(b);
    for (const std::size_t threads : {1u, 2u, 5u, 8u}) {
      util::ThreadPool pool(threads);
      PackedB parallel;
      parallel.pack_view_parallel(detail::MatView::normal(b), pool);
      ASSERT_EQ(parallel.rows(), serial.rows());
      ASSERT_EQ(parallel.cols(), serial.cols());
      const std::size_t padded_n = (n + detail::kNR - 1) / detail::kNR * detail::kNR;
      EXPECT_EQ(std::memcmp(parallel.panel(0), serial.panel(0),
                            k * padded_n * sizeof(float)),
                0)
          << "k=" << k << " n=" << n << " threads=" << threads;
    }
  }
}

TEST(GemmPacked, ParallelPackingHandlesTransposedViews) {
  const Matrix b = random(129, 257, 4242);
  PackedB serial;
  serial.pack(b, /*transpose=*/true);
  util::ThreadPool pool(4);
  PackedB parallel;
  parallel.pack_view_parallel(detail::MatView::transposed(b), pool);
  const std::size_t k = b.cols(), n = b.rows();
  ASSERT_EQ(parallel.rows(), k);
  ASSERT_EQ(parallel.cols(), n);
  const std::size_t padded_n = (n + detail::kNR - 1) / detail::kNR * detail::kNR;
  EXPECT_EQ(std::memcmp(parallel.panel(0), serial.panel(0), k * padded_n * sizeof(float)), 0);
}

// ---------------------------------------------------------------------------
// Packing layouts and exact products at the trainer's shapes
// ---------------------------------------------------------------------------

std::size_t round_up(std::size_t value, std::size_t multiple) {
  return (value + multiple - 1) / multiple * multiple;
}

/// Generic strided B packer: every element through the view's strides, one
/// at a time, zero past the last column. The full-strip fast paths of
/// PackedB::pack must reproduce this layout byte for byte.
std::vector<float> reference_pack_b(const detail::MatView& b) {
  const std::size_t padded_n = round_up(b.cols, detail::kNR);
  std::vector<float> out(b.rows * padded_n);
  for (std::size_t pc = 0; pc < b.rows; pc += detail::kKC) {
    const std::size_t kc = std::min(detail::kKC, b.rows - pc);
    float* panel = out.data() + pc * padded_n;
    for (std::size_t j0 = 0; j0 < b.cols; j0 += detail::kNR) {
      for (std::size_t p = 0; p < kc; ++p) {
        for (std::size_t j = 0; j < detail::kNR; ++j) {
          panel[(j0 / detail::kNR) * kc * detail::kNR + p * detail::kNR + j] =
              j0 + j < b.cols ? b.data[(pc + p) * b.row_stride + (j0 + j) * b.col_stride] : 0.0f;
        }
      }
    }
  }
  return out;
}

/// Generic strided A packer with the layout pack_a_block documents.
std::vector<float> reference_pack_a(const detail::MatView& a, std::size_t ic, std::size_t mc,
                                    std::size_t pc, std::size_t kc) {
  std::vector<float> out(round_up(mc, detail::kMR) * kc);
  for (std::size_t i0 = 0; i0 < mc; i0 += detail::kMR) {
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t ii = 0; ii < detail::kMR; ++ii) {
        out[(i0 / detail::kMR) * kc * detail::kMR + p * detail::kMR + ii] =
            i0 + ii < mc ? a.data[(ic + i0 + ii) * a.row_stride + (pc + p) * a.col_stride]
                         : 0.0f;
      }
    }
  }
  return out;
}

TEST(GemmPackedLayout, PackedBMatchesGenericPacker) {
  // n covers full strips only (8, 64), a ragged last strip (3, 13, 65) and
  // k covers one and two KC panels; each in both orientations.
  for (const std::size_t k : {1u, 16u, 64u, 300u}) {
    for (const std::size_t n : {3u, 8u, 13u, 64u, 65u}) {
      for (const bool transpose : {false, true}) {
        const Matrix src = transpose ? random(n, k, k * 31 + n) : random(k, n, k * 37 + n);
        const detail::MatView view =
            transpose ? detail::MatView::transposed(src) : detail::MatView::normal(src);
        PackedB packed;
        packed.pack(src, transpose);
        const std::vector<float> expected = reference_pack_b(view);
        ASSERT_EQ(packed.rows(), k);
        ASSERT_EQ(packed.cols(), n);
        EXPECT_EQ(std::memcmp(packed.panel(0), expected.data(), expected.size() * sizeof(float)),
                  0)
            << "k=" << k << " n=" << n << " transpose=" << transpose;
      }
    }
  }
}

TEST(GemmPackedLayout, PackABlockMatchesGenericPacker) {
  // Full strips (mc a multiple of kMR) and ragged ones, at nonzero row and
  // K offsets, for a normal view and the transposed one dW = aᵀ·δ packs.
  const Matrix src = random(40, 300, 4711);
  for (const bool transpose : {false, true}) {
    const detail::MatView view =
        transpose ? detail::MatView::transposed(src) : detail::MatView::normal(src);
    for (const std::size_t ic : {0u, 3u, 8u}) {
      for (const std::size_t mc : {1u, 5u, 8u, 13u, 16u, 32u}) {
        for (const auto& [pc, kc] : {std::pair<std::size_t, std::size_t>{0, 1},
                                     {0, 16},
                                     {7, 33}}) {
          if (ic + mc > view.rows || pc + kc > view.cols) continue;
          const std::vector<float> expected = reference_pack_a(view, ic, mc, pc, kc);
          std::vector<float> actual(expected.size(), std::nanf(""));
          detail::pack_a_block(view, ic, mc, pc, kc, actual.data());
          EXPECT_EQ(std::memcmp(actual.data(), expected.data(), expected.size() * sizeof(float)),
                    0)
              << "transpose=" << transpose << " ic=" << ic << " mc=" << mc << " pc=" << pc
              << " kc=" << kc;
        }
      }
    }
  }
}

bool bit_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)) == 0;
}

TEST(GemmPackedLayout, TrainerShapesAreExactAcrossOperandOrientations) {
  // The trainer's minibatch products: batch 32 × 16 features into hidden
  // widths 4–64, and a 64-wide layer into a 3-class output. Each product
  // is formed once through a strided (transposed) operand and once through
  // an explicit transpose; the packed layouts are the same, so the results
  // must be bit-identical.
  KernelGuard guard(GemmKernel::Packed);
  const std::vector<std::array<std::size_t, 3>> shapes = {
      {32, 16, 4}, {32, 16, 8}, {32, 16, 16}, {32, 16, 32}, {32, 16, 64}, {32, 64, 3}};
  for (const auto& [m, k, n] : shapes) {
    const Matrix x = random(m, k, m * 7 + k * 11 + n);   // a_prev: batch × in
    const Matrix w = random(k, n, m * 13 + k * 17 + n);  // W: in × out
    const Matrix d = random(m, n, m * 19 + k * 23 + n);  // δ: batch × out
    const std::string where = std::to_string(m) + "x" + std::to_string(k) + "x" +
                              std::to_string(n);

    // Forward: x·W, packed per call and prepacked.
    Matrix y(m, n), y_pre(m, n), y_ref(m, n);
    gemm_blocked(x, w, y);
    PackedB packed_w;
    packed_w.pack(w);
    gemm_prepacked(x, packed_w, y_pre);
    gemm_naive(x, w, y_ref);
    EXPECT_TRUE(bit_equal(y, y_pre)) << where;
    EXPECT_TRUE(y.approx_equal(y_ref, 1e-4f)) << where;

    // dW = xᵀ·δ: transposed view of x vs an explicit transpose.
    Matrix dw(k, n), dw_explicit(k, n);
    gemm_at(x, d, dw);
    gemm_blocked(x.transposed(), d, dw_explicit);
    EXPECT_TRUE(bit_equal(dw, dw_explicit)) << where;

    // δ·Wᵀ: transposed view of W, explicit transpose, and prepacked Wᵀ.
    Matrix back(m, k), back_explicit(m, k), back_pre(m, k), back_ref(m, k);
    gemm_bt(d, w, back);
    gemm_blocked(d, w.transposed(), back_explicit);
    PackedB packed_wt;
    packed_wt.pack(w, /*transpose=*/true);
    gemm_prepacked(d, packed_wt, back_pre);
    gemm_naive(d, w.transposed(), back_ref);
    EXPECT_TRUE(bit_equal(back, back_explicit)) << where;
    EXPECT_TRUE(bit_equal(back, back_pre)) << where;
    EXPECT_TRUE(back.approx_equal(back_ref, 1e-4f)) << where;
  }
}

TEST(GemmKernelSelection, ParseRoundTrip) {
  EXPECT_EQ(parse_gemm_kernel("packed"), GemmKernel::Packed);
  EXPECT_EQ(parse_gemm_kernel("Blocked"), GemmKernel::Blocked);
  EXPECT_EQ(parse_gemm_kernel("NAIVE"), GemmKernel::Naive);
  EXPECT_THROW(parse_gemm_kernel("simd"), std::invalid_argument);
  EXPECT_STREQ(to_string(GemmKernel::Packed), "packed");
  EXPECT_STREQ(to_string(GemmKernel::Blocked), "blocked");
  EXPECT_STREQ(to_string(GemmKernel::Naive), "naive");
}

TEST(GemmKernelSelection, SetterSwitchesBackend) {
  const GemmKernel before = active_gemm_kernel();
  set_gemm_kernel(GemmKernel::Naive);
  EXPECT_EQ(active_gemm_kernel(), GemmKernel::Naive);
  set_gemm_kernel(GemmKernel::Blocked);
  EXPECT_EQ(active_gemm_kernel(), GemmKernel::Blocked);
  set_gemm_kernel(before);
  EXPECT_EQ(active_gemm_kernel(), before);
}

TEST(GemmKernelSelection, AllBackendsAgreeOnOneProduct) {
  const Matrix a = random(23, 45, 3);
  const Matrix b = random(45, 17, 5);
  Matrix expected(23, 17);
  gemm_naive(a, b, expected);
  for (const GemmKernel kernel :
       {GemmKernel::Packed, GemmKernel::Blocked, GemmKernel::Naive}) {
    KernelGuard guard(kernel);
    Matrix actual(23, 17);
    gemm_blocked(a, b, actual);
    EXPECT_TRUE(actual.approx_equal(expected, 1e-3f)) << to_string(kernel);
  }
}

// The dimension-error contract shared by every entry point: same exception
// type, "<op>: inner dimensions differ (x vs y)" / "<op>: output shape
// mismatch (...)" message style.
TEST(GemmErrors, ConsistentMessagesAcrossEntryPoints) {
  Matrix c(2, 2);
  const auto message_of = [](const std::function<void()>& fn) {
    try {
      fn();
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string("<no exception>");
  };

  const Matrix a(2, 3), b(4, 2);
  EXPECT_EQ(message_of([&] { gemm_naive(a, b, c); }),
            "gemm: inner dimensions differ (3 vs 4)");
  EXPECT_EQ(message_of([&] { gemm_blocked(a, b, c); }),
            "gemm: inner dimensions differ (3 vs 4)");
  // gemm_at inner dim is the row count of both operands.
  const Matrix at_a(3, 2), at_b(4, 2);
  EXPECT_EQ(message_of([&] { gemm_at(at_a, at_b, c); }),
            "gemm_at: inner dimensions differ (3 vs 4)");
  // gemm_bt inner dim is the column count of both operands.
  const Matrix bt_a(2, 3), bt_b(2, 4);
  EXPECT_EQ(message_of([&] { gemm_bt(bt_a, bt_b, c); }),
            "gemm_bt: inner dimensions differ (3 vs 4)");

  const Matrix ok_a(2, 3), ok_b(3, 2);
  Matrix bad(3, 3);
  EXPECT_EQ(message_of([&] { gemm_naive(ok_a, ok_b, bad); }),
            "gemm: output shape mismatch (3x3 vs expected 2x2)");
  EXPECT_EQ(message_of([&] { gemm_at(at_a, Matrix(3, 2), bad); }),
            "gemm_at: output shape mismatch (3x3 vs expected 2x2)");
  EXPECT_EQ(message_of([&] { gemm_bt(bt_a, Matrix(4, 3), bad); }),
            "gemm_bt: output shape mismatch (3x3 vs expected 2x4)");
}

TEST(GemmErrors, TransposedVariantsThrowSameTypeUnderEveryKernel) {
  const Matrix a(2, 3), b(4, 2);
  Matrix c(3, 2);
  for (const GemmKernel kernel :
       {GemmKernel::Packed, GemmKernel::Blocked, GemmKernel::Naive}) {
    KernelGuard guard(kernel);
    EXPECT_THROW(gemm_at(a, b, c), std::invalid_argument) << to_string(kernel);
    EXPECT_THROW(gemm_bt(a, b, c), std::invalid_argument) << to_string(kernel);
  }
}

}  // namespace
}  // namespace ecad::linalg
