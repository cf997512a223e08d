// Packed, register-blocked GEMM backend.
//
// The paper's candidate evaluations spend nearly all wall clock inside GEMM
// ("At the heart of MLP is a general matrix multiplication", §I), so the
// production kernels here follow the classic Goto/BLIS decomposition:
//   * operand panels are packed into contiguous, cache-tiled buffers
//     (A in MR-row strips, B in NR-column strips, zero-padded at edges);
//   * an MR×NR register-accumulator microkernel runs over each KC slice,
//     written so the compiler vectorizes it (and, on x86-64 GCC, cloned for
//     AVX2/AVX-512 with runtime dispatch);
//   * transposed operands are handled by strided packing, so Aᵀ·B and A·Bᵀ
//     (backprop's dW and δ products) never materialize a transpose.
//
// Kernel selection: the public gemm_* entry points in gemm.h dispatch on
// `active_gemm_kernel()`, settable programmatically or via the
// ECAD_GEMM_KERNEL environment variable ("packed" | "blocked" | "naive").
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "util/thread_pool.h"

namespace ecad::linalg {

/// Which backend the gemm_* entry points in gemm.h dispatch to.
///   * Packed  — packed register-blocked driver (default, fastest);
///   * Blocked — legacy cache-blocked ikj loops (pre-packing baseline);
///   * Naive   — reference triple loop (oracle; debugging only).
enum class GemmKernel { Packed, Blocked, Naive };

/// Parses "packed" / "blocked" / "naive" (case-insensitive).
/// Throws std::invalid_argument on anything else.
GemmKernel parse_gemm_kernel(const std::string& name);

const char* to_string(GemmKernel kernel);

/// Currently active kernel. First call reads ECAD_GEMM_KERNEL (an
/// unrecognized value logs a warning and keeps the Packed default).
GemmKernel active_gemm_kernel();

/// Overrides the active kernel for this process (tests, benches).
void set_gemm_kernel(GemmKernel kernel);

namespace detail {

/// Strided read-only view of a logical rows×cols operand. Lets the packing
/// routines walk A, Aᵀ, B, or Bᵀ uniformly: element (i, j) lives at
/// data[i·row_stride + j·col_stride].
struct MatView {
  const float* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t row_stride = 0;
  std::size_t col_stride = 0;

  static MatView normal(const Matrix& m) { return {m.raw(), m.rows(), m.cols(), m.cols(), 1}; }
  static MatView transposed(const Matrix& m) {
    return {m.raw(), m.cols(), m.rows(), 1, m.cols()};
  }
};

/// Register tile and cache-block sizes shared by the packers and drivers.
/// MR×NR accumulators stay in registers; KC sizes one packed strip pair to
/// fit L1; MC bounds the packed A block (~MC·KC floats) to fit L2.
constexpr std::size_t kMR = 8;
constexpr std::size_t kNR = 8;
constexpr std::size_t kKC = 256;
constexpr std::size_t kMC = 128;

}  // namespace detail

/// A fully packed logical B operand (k×n), reusable across GEMM calls while
/// the source matrix is unchanged. Panels are laid out exactly as the driver
/// consumes them, so `gemm_prepacked` skips all packing work — the win the
/// MLP layers exploit by reusing weight panels across minibatches.
class PackedB {
 public:
  PackedB() = default;
  /// Move-only: the packed buffer is raw storage with no value semantics a
  /// copy would preserve cheaply (MLP caches hold these in vectors).
  PackedB(PackedB&&) noexcept = default;
  PackedB& operator=(PackedB&&) noexcept = default;
  PackedB(const PackedB&) = delete;
  PackedB& operator=(const PackedB&) = delete;

  /// Packs logical B = `b` (or `bᵀ` when `transpose`). Reuses the existing
  /// buffer capacity, so repacking after a weight update does not allocate.
  void pack(const Matrix& b, bool transpose = false);

  /// Packs an arbitrary strided view (used by the parallel driver).
  void pack_view(const detail::MatView& b);

  /// Same layout, but the packing work itself fans out across `pool`:
  /// (K-panel × column-strip-chunk) tasks write disjoint output regions.
  /// The parallel GEMM driver packed B serially before sharding — at large
  /// N that serial phase capped multi-thread scaling (Amdahl).
  void pack_view_parallel(const detail::MatView& b, util::ThreadPool& pool);

  bool empty() const { return k_ == 0 || n_ == 0; }
  std::size_t rows() const { return k_; }  // logical k
  std::size_t cols() const { return n_; }  // logical n

  /// Start of the packed panel for rows [pc, pc+kc): strips of kNR columns,
  /// each kc×kNR, zero-padded past `cols()`.
  const float* panel(std::size_t pc) const { return data_.get() + pc * padded_n_; }

 private:
  /// Grow the buffer to at least `floats` WITHOUT value-initializing it.
  /// vector::resize would memset the whole packed buffer serially on first
  /// use (and every growth) even though packing overwrites every element —
  /// padding included — which showed up as a serial phase ahead of
  /// gemm_parallel's sharded packing.
  void ensure_storage(std::size_t floats);

  std::size_t k_ = 0;
  std::size_t n_ = 0;
  std::size_t padded_n_ = 0;  // n rounded up to kNR
  std::unique_ptr<float[]> data_;  // uninitialized storage, capacity_ floats
  std::size_t capacity_ = 0;
};

namespace detail {

/// C (m×n) = A·B (+C when `accumulate`) over strided views; serial driver.
/// Shapes must already be validated by the caller.
void gemm_packed(const MatView& a, const MatView& b, Matrix& c, bool accumulate);

/// Row-partitioned packed driver: B is packed once, then MR-aligned row
/// shards of A are packed and multiplied across `pool`.
void gemm_packed_parallel(const MatView& a, const MatView& b, Matrix& c, util::ThreadPool& pool,
                          bool accumulate);

/// Serial driver over an already-packed B.
void gemm_packed_prepacked(const MatView& a, const PackedB& b, Matrix& c, bool accumulate);

/// Packs rows [ic, ic+mc) × cols [pc, pc+kc) of logical A into kMR-row
/// strips: strip i0 holds rows [i0, i0+kMR) column-major within the strip
/// (element (ii, p) at p·kMR + ii), zero-padded past mc. Output occupies
/// round_up(mc, kMR) * kc floats. The drivers call it per A block; it is
/// declared here so tests can check its layout.
void pack_a_block(const MatView& a, std::size_t ic, std::size_t mc, std::size_t pc,
                  std::size_t kc, float* out);

}  // namespace detail

/// C (m×n) = A (m×k) · B, with B supplied pre-packed. Dimension mismatches
/// throw std::invalid_argument in the same style as gemm_naive.
void gemm_prepacked(const Matrix& a, const PackedB& b, Matrix& c, bool accumulate = false);

}  // namespace ecad::linalg
