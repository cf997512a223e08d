// GEMM microbenchmark — the kernels backing MLP training, the dominant cost
// of every ECAD candidate evaluation (paper Table III).
//
// Self-contained harness (no external benchmark dependency): each kernel ×
// shape is spot-checked against the gemm_naive oracle, timed (best-of-N
// with a minimum total measuring window), printed as a table, and emitted to
// BENCH_micro_gemm.json via util::BenchReport so CI can archive the perf
// trajectory. `--quick` (or ECAD_BENCH_QUICK=1) shrinks shapes and windows.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "linalg/gemm.h"
#include "util/bench_json.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace ecad;

linalg::Matrix make(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  util::Rng rng(seed);
  return linalg::Matrix::random_uniform(rows, cols, rng);
}

bool quick_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return true;
  }
  const char* env = std::getenv("ECAD_BENCH_QUICK");
  return env != nullptr && std::strcmp(env, "1") == 0;
}

/// Best single-run seconds: warm up once, then repeat until `min_window`
/// seconds have accumulated (at least 3, at most `max_reps` runs).
double time_best(const std::function<void()>& fn, double min_window, int max_reps = 60) {
  fn();  // warmup
  double best = 1e300;
  double total = 0.0;
  int reps = 0;
  while ((total < min_window || reps < 3) && reps < max_reps) {
    util::Stopwatch sw;
    fn();
    const double t = sw.elapsed_seconds();
    best = std::min(best, t);
    total += t;
    ++reps;
  }
  return best;
}

struct Shape {
  std::size_t m, k, n;
  std::string str() const {
    return std::to_string(m) + "x" + std::to_string(k) + "x" + std::to_string(n);
  }
  double flops() const { return static_cast<double>(linalg::gemm_flops(m, k, n)); }
};

struct Row {
  std::string kernel;
  Shape shape;
  std::size_t threads = 1;
  double seconds = 0.0;
  double gflops = 0.0;
  double vs_naive = 0.0;    // 0 when the naive baseline was not measured
  double vs_blocked = 0.0;  // 0 when the legacy baseline was not measured
};

Row make_row(const std::string& kernel, const Shape& shape, std::size_t threads, double seconds,
             double naive_s, double blocked_s) {
  Row row;
  row.kernel = kernel;
  row.shape = shape;
  row.threads = threads;
  row.seconds = seconds;
  row.gflops = shape.flops() / seconds / 1e9;
  row.vs_naive = naive_s > 0.0 ? naive_s / seconds : 0.0;
  row.vs_blocked = blocked_s > 0.0 ? blocked_s / seconds : 0.0;
  return row;
}

void verify(const linalg::Matrix& actual, const linalg::Matrix& expected,
            const std::string& what) {
  if (!actual.approx_equal(expected, 1e-2f)) {
    std::fprintf(stderr, "FATAL: %s diverges from the gemm_naive oracle\n", what.c_str());
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  const double window = quick ? 0.1 : 0.35;

  // The bench pins kernels explicitly; ignore any ambient ECAD_GEMM_KERNEL.
  linalg::set_gemm_kernel(linalg::GemmKernel::Packed);

  std::vector<Shape> squares;
  for (std::size_t n : {64ul, 128ul, 256ul, 512ul, 1024ul}) {
    if (quick && n > 256) continue;
    squares.push_back({n, n, n});
  }
  // MLP-shaped products: batch × features -> batch × neurons.
  // The first three are wide-input layers (MNIST, HAR, Bioresponse widths);
  // the rest are the forward products the co-design trainer runs on its
  // default data: batch 32, 16 features, hidden widths up to 64, 3 classes,
  // and the 150-row validation pass into the class layer.
  std::vector<Shape> mlp_shapes = {{32, 784, 128}, {32, 561, 64}, {32, 1776, 128}, {32, 16, 64},
                                   {32, 64, 64},   {32, 64, 3},   {150, 64, 3}};
  // The trainer's backward products, shape m×k×n = C's rows × inner × C's
  // columns: dW = a_prevᵀ·δ (inner dimension the batch of 32) and δ·Wᵀ
  // against a prepacked Wᵀ.
  const std::vector<Shape> dw_shapes = {{64, 32, 64}, {64, 32, 3}};
  const std::vector<Shape> delta_shapes = {{32, 64, 16}};

  std::vector<Row> rows;
  util::ThreadPool pool2(2), pool4(4);

  const auto run_shape = [&](const Shape& s, bool square) {
    const linalg::Matrix a = make(s.m, s.k, 1), b = make(s.k, s.n, 2);
    linalg::Matrix c(s.m, s.n), oracle(s.m, s.n);
    linalg::gemm_naive(a, b, oracle);

    const auto add_row = [&](const std::string& kernel, std::size_t threads, double seconds,
                             double naive_s, double blocked_s) {
      rows.push_back(make_row(kernel, s, threads, seconds, naive_s, blocked_s));
    };

    const double naive_s = time_best([&] { linalg::gemm_naive(a, b, c); }, window, 12);
    const double blocked_s =
        time_best([&] { linalg::gemm_blocked(a, b, c, false, 64); }, window);
    verify(c, oracle, "gemm_blocked(legacy) " + s.str());
    const double packed_s = time_best([&] { linalg::gemm_blocked(a, b, c); }, window);
    verify(c, oracle, "gemm_packed " + s.str());

    add_row("naive", 1, naive_s, naive_s, blocked_s);
    add_row("blocked_legacy", 1, blocked_s, naive_s, blocked_s);
    add_row("packed", 1, packed_s, naive_s, blocked_s);

    linalg::PackedB packed_b;
    packed_b.pack(b);
    const double prepacked_s =
        time_best([&] { linalg::gemm_prepacked(a, packed_b, c); }, window);
    verify(c, oracle, "gemm_prepacked " + s.str());
    add_row("packed_prepacked", 1, prepacked_s, naive_s, blocked_s);

    if (square && s.m >= 256) {
      const double par2_s =
          time_best([&] { linalg::gemm_parallel(a, b, c, pool2); }, window);
      verify(c, oracle, "gemm_parallel(t2) " + s.str());
      add_row("packed_parallel", 2, par2_s, naive_s, blocked_s);
      const double par4_s =
          time_best([&] { linalg::gemm_parallel(a, b, c, pool4); }, window);
      verify(c, oracle, "gemm_parallel(t4) " + s.str());
      add_row("packed_parallel", 4, par4_s, naive_s, blocked_s);
    }

    if (square) {
      // Transposed products (backprop's dW = aᵀ·δ and δ·Wᵀ): packed strided
      // packing vs the pre-packing reference loops.
      linalg::Matrix ct(s.m, s.n);
      linalg::set_gemm_kernel(linalg::GemmKernel::Blocked);
      const double at_ref_s = time_best([&] { linalg::gemm_at(a, b, ct); }, window);
      const double bt_ref_s = time_best([&] { linalg::gemm_bt(a, b, ct); }, window);
      linalg::set_gemm_kernel(linalg::GemmKernel::Packed);
      const double at_s = time_best([&] { linalg::gemm_at(a, b, ct); }, window);
      const double bt_s = time_best([&] { linalg::gemm_bt(a, b, ct); }, window);
      add_row("at_reference", 1, at_ref_s, 0.0, 0.0);
      add_row("at_packed", 1, at_s, 0.0, at_ref_s);
      add_row("bt_reference", 1, bt_ref_s, 0.0, 0.0);
      add_row("bt_packed", 1, bt_s, 0.0, bt_ref_s);
    }
  };

  for (const Shape& s : squares) run_shape(s, /*square=*/true);
  for (const Shape& s : mlp_shapes) run_shape(s, /*square=*/false);
  for (const Shape& s : dw_shapes) {
    const linalg::Matrix a_prev = make(s.k, s.m, 1), delta = make(s.k, s.n, 2);
    linalg::Matrix c(s.m, s.n), oracle(s.m, s.n);
    linalg::gemm_naive(a_prev.transposed(), delta, oracle);
    const double at_s = time_best([&] { linalg::gemm_at(a_prev, delta, c); }, window);
    verify(c, oracle, "gemm_at " + s.str());
    rows.push_back(make_row("at_packed", s, 1, at_s, 0.0, 0.0));
  }
  for (const Shape& s : delta_shapes) {
    const linalg::Matrix delta = make(s.m, s.k, 1), w = make(s.n, s.k, 2);
    linalg::Matrix c(s.m, s.n), oracle(s.m, s.n);
    linalg::gemm_naive(delta, w.transposed(), oracle);
    linalg::PackedB packed_wt;
    packed_wt.pack(w, /*transpose=*/true);
    const double bt_s = time_best([&] { linalg::gemm_prepacked(delta, packed_wt, c); }, window);
    verify(c, oracle, "gemm_prepacked(Wt) " + s.str());
    rows.push_back(make_row("bt_prepacked", s, 1, bt_s, 0.0, 0.0));
  }

  // ---- human-readable table -------------------------------------------------
  util::TextTable table({"Kernel", "Shape (m=k=n or mxkxn)", "Threads", "GFLOP/s", "vs naive",
                         "vs blocked"});
  for (const Row& row : rows) {
    table.add_row({row.kernel, row.shape.str(), std::to_string(row.threads),
                   util::format_fixed(row.gflops, 2),
                   row.vs_naive > 0.0 ? util::format_fixed(row.vs_naive, 2) + "x" : "-",
                   row.vs_blocked > 0.0 ? util::format_fixed(row.vs_blocked, 2) + "x" : "-"});
  }
  table.print(std::cout, std::string("micro_gemm: GEMM kernel throughput") +
                             (quick ? " (--quick)" : ""));

  // ---- machine-readable report ---------------------------------------------
  util::BenchReport report("micro_gemm");
  report.set_metadata("quick", quick ? "1" : "0");
  report.set_metadata("hardware_concurrency",
                      std::to_string(std::thread::hardware_concurrency()));
  for (const Row& row : rows) {
    util::BenchEntry& entry =
        report.add_entry(row.kernel + "/" + row.shape.str() + "/t" +
                         std::to_string(row.threads));
    entry.label("kernel", row.kernel)
        .label("shape", row.shape.str())
        .label("threads", std::to_string(row.threads));
    entry.metric("m", static_cast<double>(row.shape.m))
        .metric("k", static_cast<double>(row.shape.k))
        .metric("n", static_cast<double>(row.shape.n))
        .metric("best_seconds", row.seconds)
        .metric("gflops", row.gflops);
    if (row.vs_naive > 0.0) entry.metric("speedup_vs_naive", row.vs_naive);
    if (row.vs_blocked > 0.0) entry.metric("speedup_vs_blocked", row.vs_blocked);
  }
  try {
    const std::string path = report.write_file();
    std::printf("\nwrote %s (%zu entries)\n", path.c_str(), report.num_entries());
  } catch (const std::exception& error) {
    // A read-only working directory shouldn't discard the measurements that
    // were already printed above.
    std::fprintf(stderr, "\nWARNING: JSON report not written: %s\n", error.what());
  }

  // Headline: the acceptance bar for the packed backend is >=3x the legacy
  // blocked kernel at the square training sizes.
  double worst = 1e300;
  for (const Row& row : rows) {
    if (row.kernel == "packed" && row.shape.m >= 256 && row.shape.m == row.shape.n) {
      worst = std::min(worst, row.vs_blocked);
    }
  }
  if (worst < 1e300) {
    std::printf("packed vs legacy blocked (square >=256): worst %.2fx\n", worst);
  }
  return 0;
}
