// Microbenchmarks (E9): the compute kernels behind training — GEMM,
// convolution lowering, depthwise convolution, batch norm, squeeze-excite,
// bf16 conversion — at EfficientNet-pico-like shapes.
//
// Modes sharing one binary:
//   (default)       google-benchmark, including cmp/<kernel>/<level> rows
//                   that time the scalar reference against each SIMD tier;
//   --smoke         perf-regression gate for the `perf_smoke` ctest label:
//                   fails if a SIMD path is slower than scalar on any
//                   compared kernel (trivially passes without AVX2);
//   --json PATH     writes one JSONL "kernel_bench" row per compared
//                   kernel (GFLOP/s at every level + speedups) and
//                   re-validates the file through obs::validate_jsonl_file;
//   --diff PATH     compares this run's scalar-vs-SIMD speedups against a
//                   committed trajectory (BENCH_kernels.json) and fails on
//                   a >15% speedup regression. Speedup ratios, not raw
//                   GFLOP/s, so the gate is portable across host classes;
//   --threads N     sets PODNET_THREADS=N before the kernel pool spins up
//                   (total participating threads; lets CI record 1-thread
//                   and N-thread trajectories from separate processes).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nn/batchnorm.h"
#include "nn/conv.h"
#include "nn/depthwise_conv.h"
#include "nn/loss.h"
#include "obs/json.h"
#include "tensor/bf16.h"
#include "tensor/channel_ops.h"
#include "tensor/conv_direct.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/thread_pool.h"

namespace {

using namespace podnet;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

void BM_Gemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn(Shape{n, n}, rng);
  Tensor b = Tensor::randn(Shape{n, n}, rng);
  Tensor c(Shape{n, n});
  for (auto _ : state) {
    tensor::gemm_contiguous(false, false, n, n, n, 1.f, a.data(), b.data(),
                            0.f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmBf16(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn(Shape{n, n}, rng);
  Tensor b = Tensor::randn(Shape{n, n}, rng);
  Tensor c(Shape{n, n});
  for (auto _ : state) {
    tensor::gemm_contiguous(false, false, n, n, n, 1.f, a.data(), b.data(),
                            0.f, c.data(), tensor::MatmulPrecision::kBf16);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmBf16)->Arg(128);

void BM_ConvForward(benchmark::State& state) {
  Rng rng(2);
  nn::Conv2D conv(16, 32, 3, 1, rng);
  Tensor x = Tensor::randn(Shape{8, 16, 16, 16}, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_ConvForward);

void BM_ConvTrainStep(benchmark::State& state) {
  Rng rng(3);
  nn::Conv2D conv(16, 32, 3, 1, rng);
  Tensor x = Tensor::randn(Shape{8, 16, 16, 16}, rng);
  Tensor g = Tensor::randn(Shape{8, 16, 16, 32}, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x, true);
    Tensor dx = conv.backward(g);
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_ConvTrainStep);

void BM_DepthwiseForward(benchmark::State& state) {
  Rng rng(4);
  nn::DepthwiseConv2D dw(32, 3, 1, rng);
  Tensor x = Tensor::randn(Shape{8, 16, 16, 32}, rng);
  for (auto _ : state) {
    Tensor y = dw.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_DepthwiseForward);

void BM_BatchNormTraining(benchmark::State& state) {
  Rng rng(5);
  nn::BatchNorm bn(32);
  Tensor x = Tensor::randn(Shape{32, 8, 8, 32}, rng);
  for (auto _ : state) {
    Tensor y = bn.forward(x, true);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_BatchNormTraining);

void BM_Im2col(benchmark::State& state) {
  const auto g = tensor::ConvGeometry::same(8, 16, 16, 32, 3, 1);
  Rng rng(6);
  Tensor x = Tensor::randn(Shape{8, 16, 16, 32}, rng);
  Tensor col(Shape{g.col_rows(), g.col_cols()});
  for (auto _ : state) {
    tensor::im2col(g, x.data(), col.data());
    benchmark::DoNotOptimize(col.data());
  }
  state.SetBytesProcessed(state.iterations() * col.numel() * 4);
}
BENCHMARK(BM_Im2col);

void BM_Bf16RoundTrip(benchmark::State& state) {
  Rng rng(7);
  Tensor x = Tensor::randn(Shape{1 << 16}, rng);
  for (auto _ : state) {
    Tensor y = x;
    tensor::bf16_round_inplace(y.span());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_Bf16RoundTrip);

void BM_SoftmaxCrossEntropy(benchmark::State& state) {
  Rng rng(8);
  Tensor logits = Tensor::randn(Shape{256, 16}, rng);
  std::vector<std::int64_t> labels(256);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int64_t>(i % 16);
  }
  for (auto _ : state) {
    auto res = nn::softmax_cross_entropy(logits, labels, 0.1f);
    benchmark::DoNotOptimize(res.loss);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_SoftmaxCrossEntropy);

// ---------------------------------------------------------------------------
// Scalar-vs-SIMD comparison harness (cmp rows / --smoke / --json).
// ---------------------------------------------------------------------------

namespace simd = tensor::simd;

struct CmpKernel {
  std::string name;
  double flops;               // per invocation (2*ops for FMA-style counts)
  std::function<void()> run;  // calls the *dispatching* entry point
};

// The compared kernels hold their operands in shared state so one setup
// serves both levels (and the google-benchmark registration, which copies
// the std::function).
std::vector<CmpKernel> make_cmp_kernels() {
  std::vector<CmpKernel> ks;

  auto add_gemm = [&](std::int64_t n, tensor::MatmulPrecision prec,
                      const std::string& tag) {
    Rng rng(11);
    auto a = std::make_shared<Tensor>(Tensor::randn(Shape{n, n}, rng));
    auto b = std::make_shared<Tensor>(Tensor::randn(Shape{n, n}, rng));
    auto c = std::make_shared<Tensor>(Shape{n, n});
    ks.push_back({tag, 2.0 * static_cast<double>(n) * n * n, [=] {
                    tensor::gemm_contiguous(false, false, n, n, n, 1.f,
                                            a->data(), b->data(), 0.f,
                                            c->data(), prec);
                    benchmark::DoNotOptimize(c->data());
                  }});
  };
  add_gemm(128, tensor::MatmulPrecision::kFp32, "gemm_f32_128");
  add_gemm(256, tensor::MatmulPrecision::kFp32, "gemm_f32_256");
  add_gemm(128, tensor::MatmulPrecision::kBf16, "gemm_bf16_128");

  {
    const std::int64_t m = 256, n = 64, k = 144;  // conv-shaped, B reused
    Rng rng(12);
    auto a = std::make_shared<Tensor>(Tensor::randn(Shape{m, k}, rng));
    auto b = std::make_shared<Tensor>(Tensor::randn(Shape{k, n}, rng));
    auto c = std::make_shared<Tensor>(Shape{m, n});
    ks.push_back({"gemm_prepacked_256x64x144",
                  2.0 * static_cast<double>(m) * n * k, [=] {
                    // Pack under the level being timed: pack + reuse is the
                    // pattern the conv batch loop runs.
                    const tensor::PackedB bp =
                        tensor::pack_b(false, k, n, b->data(), n);
                    for (int r = 0; r < 4; ++r) {
                      tensor::gemm_prepacked(false, m / 4, n, k, 1.f,
                                             a->data() + (m / 4) * k * r, k,
                                             bp, 0.f,
                                             c->data() + (m / 4) * n * r, n);
                    }
                    benchmark::DoNotOptimize(c->data());
                  }});
  }

  // Real EfficientNet-B0 MBConv depthwise shapes (batch 1, expanded
  // channel counts): the stage-2 repeat block (3x3 s1 C=144 @ 56^2), the
  // stage-3 repeat block (5x5 s1 C=240 @ 28^2), and the stage-2 entry
  // block's strided filter (3x3 s2 C=96, 112^2 -> 56^2). Flops are the
  // zero-padding upper bound 2*OH*OW*K^2*C.
  auto add_depthwise = [&](std::int64_t c, std::int64_t kernel,
                           std::int64_t stride, std::int64_t hw,
                           const std::string& tag) {
    Rng rng(13);
    auto dw = std::make_shared<nn::DepthwiseConv2D>(c, kernel, stride, rng);
    auto x = std::make_shared<Tensor>(Tensor::randn(Shape{1, hw, hw, c}, rng));
    const std::int64_t out_hw = (hw + stride - 1) / stride;
    const double flops =
        2.0 * static_cast<double>(out_hw * out_hw * kernel * kernel * c);
    ks.push_back({tag, flops, [=] {
                    Tensor y = dw->forward(*x, false);
                    benchmark::DoNotOptimize(y.data());
                  }});
  };
  add_depthwise(144, 3, 1, 56, "mbconv_dw3x3_s1_56x56x144");
  add_depthwise(240, 5, 1, 28, "mbconv_dw5x5_s1_28x28x240");
  add_depthwise(96, 3, 2, 112, "mbconv_dw3x3_s2_112x112x96");

  {
    // Stage-2 pointwise expansion (1x1 conv 24 -> 144 over 56^2 pixels):
    // Conv2D lowers this to a single GEMM with no im2col.
    Rng rng(16);
    auto pw = std::make_shared<nn::Conv2D>(24, 144, 1, 1, rng);
    auto x = std::make_shared<Tensor>(Tensor::randn(Shape{1, 56, 56, 24}, rng));
    const double flops = 2.0 * 56 * 56 * 24 * 144;
    ks.push_back({"mbconv_pw1x1_56x56_24to144", flops, [=] {
                    Tensor y = pw->forward(*x, false);
                    benchmark::DoNotOptimize(y.data());
                  }});
  }

  {
    // EfficientNet stem (3x3 s2, 3 -> 32 @ 224^2) through the direct
    // kernel with the fused bias+swish epilogue — the im2col-free path.
    const auto g = tensor::ConvGeometry::same(1, 112, 112, 3, 3, 2);
    Rng rng(17);
    auto x = std::make_shared<Tensor>(Tensor::randn(Shape{1, 112, 112, 3}, rng));
    auto w = std::make_shared<Tensor>(Tensor::randn(Shape{3, 3, 3, 32}, rng));
    auto b = std::make_shared<Tensor>(Tensor::randn(Shape{32}, rng));
    auto y = std::make_shared<Tensor>(Shape{1, g.out_h, g.out_w, 32});
    const double flops = 2.0 * static_cast<double>(g.out_h * g.out_w) * 9 * 3 * 32;
    ks.push_back({"stem_conv3x3_s2_direct", flops, [=] {
                    tensor::conv::conv2d_direct(
                        g, 32, x->data(), w->data(), b->data(),
                        tensor::conv::Epilogue::kBiasSwish, y->data());
                    benchmark::DoNotOptimize(y->data());
                  }});
  }

  // Squeeze-excite squeeze (channel mean) and excite (channel scale) at B0
  // per-image SE shapes that stay below the kernels' thread split and in
  // L2: the stage-4 entry block's [14,14,240], the stage-6 entry block's
  // [7,7,672] and the stage-6/7 blocks' [7,7,1152]. One flop per input
  // element. The batch-4 shapes eval runs are memory-bound and threaded;
  // there every tier ties and a loaded host decides the comparison.
  auto add_se = [&](std::int64_t hw, std::int64_t c, const std::string& tag) {
    Rng rng(18);
    auto x = std::make_shared<Tensor>(Tensor::randn(Shape{1, hw, hw, c}, rng));
    auto gate = std::make_shared<Tensor>(Tensor::randn(Shape{1, c}, rng));
    auto y = std::make_shared<Tensor>(Shape{1, hw, hw, c});
    const double elems = static_cast<double>(x->numel());
    ks.push_back({"channel_mean_" + tag, elems, [=] {
                    tensor::channel_mean(x->data(), 1, hw * hw, c,
                                         gate->data());
                    benchmark::DoNotOptimize(gate->data());
                  }});
    ks.push_back({"channel_scale_" + tag, elems, [=] {
                    tensor::channel_scale(x->data(), gate->data(), 1, hw * hw,
                                          c, y->data());
                    benchmark::DoNotOptimize(y->data());
                  }});
  };
  add_se(14, 240, "14x14x240");
  add_se(7, 672, "7x7x672");
  add_se(7, 1152, "7x7x1152");

  const std::size_t kVec = std::size_t{1} << 14;  // 64 KiB: L1/L2 resident
  Rng vrng(14);
  auto vx = std::make_shared<std::vector<float>>(kVec);
  auto vy = std::make_shared<std::vector<float>>(kVec);
  auto vz = std::make_shared<std::vector<float>>(kVec);
  for (auto& v : *vx) v = vrng.normal();
  for (auto& v : *vy) v = vrng.normal();

  ks.push_back({"axpy_16k", 2.0 * kVec, [=] {
                  tensor::axpy(1.0009f, {vx->data(), kVec},
                               {vy->data(), kVec});
                  benchmark::DoNotOptimize(vy->data());
                }});
  ks.push_back({"add_inplace_16k", 1.0 * kVec, [=] {
                  tensor::add_inplace({vx->data(), kVec}, {vy->data(), kVec});
                  benchmark::DoNotOptimize(vy->data());
                }});
  ks.push_back({"sum_squares_16k", 2.0 * kVec, [=] {
                  benchmark::DoNotOptimize(
                      tensor::sum_squares({vx->data(), kVec}));
                }});
  ks.push_back({"dot_16k", 2.0 * kVec, [=] {
                  benchmark::DoNotOptimize(
                      tensor::dot({vx->data(), kVec}, {vy->data(), kVec}));
                }});
  ks.push_back({"swish_16k", 8.0 * kVec, [=] {
                  tensor::swish({vx->data(), kVec}, {vz->data(), kVec},
                                {vz->data(), kVec});
                  benchmark::DoNotOptimize(vz->data());
                }});
  ks.push_back({"sigmoid_16k", 6.0 * kVec, [=] {
                  tensor::sigmoid({vx->data(), kVec}, {vz->data(), kVec});
                  benchmark::DoNotOptimize(vz->data());
                }});
  ks.push_back({"bf16_round_16k", 1.0 * kVec, [=] {
                  std::memcpy(vz->data(), vx->data(), kVec * sizeof(float));
                  tensor::bf16_round_inplace({vz->data(), kVec});
                  benchmark::DoNotOptimize(vz->data());
                }});
  {
    const std::int64_t rows = 128, cols = 128;
    Rng rng(15);
    auto logits = std::make_shared<Tensor>(
        Tensor::randn(Shape{rows, cols}, rng));
    auto work = std::make_shared<Tensor>(Shape{rows, cols});
    ks.push_back({"softmax_128x128", 6.0 * rows * cols, [=] {
                    std::memcpy(work->data(), logits->data(),
                                static_cast<std::size_t>(rows * cols) *
                                    sizeof(float));
                    tensor::softmax_rows(work->data(), rows, cols);
                    benchmark::DoNotOptimize(work->data());
                  }});
  }
  return ks;
}

struct CmpResult {
  std::string name;
  double flops = 0;
  double scalar_s = 0;
  double simd_s = 0;    // avx2
  double avx512_s = 0;  // 0 when the host has no AVX-512
  double speedup() const { return simd_s > 0 ? scalar_s / simd_s : 0; }
  double avx512_speedup() const {
    return avx512_s > 0 ? scalar_s / avx512_s : 0;
  }
  double gflops(double s) const { return s > 0 ? flops / s * 1e-9 : 0; }
};

// Best-of-R wall time per invocation at every level. Each level times
// `iters` calls per repeat (calibrated to ~10 ms per level) and its
// minimum repeat wins, which filters the scheduler noise a loaded CI host
// injects. The levels' repeats are interleaved, so a change in host load
// hits every level alike instead of passing for a speedup or a loss.
CmpResult measure(const CmpKernel& k) {
  using clock = std::chrono::steady_clock;
  std::vector<simd::Level> levels = {simd::Level::kScalar,
                                     simd::Level::kAvx2};
  if (simd::detected_level() >= simd::Level::kAvx512) {
    levels.push_back(simd::Level::kAvx512);
  }
  auto time_n = [&](simd::Level lvl, long iters) {
    simd::ScopedLevel scoped(lvl);
    const auto t0 = clock::now();
    for (long i = 0; i < iters; ++i) k.run();
    return std::chrono::duration<double>(clock::now() - t0).count();
  };
  std::vector<long> iters(levels.size(), 1);
  std::vector<double> best(levels.size());
  for (std::size_t l = 0; l < levels.size(); ++l) {
    time_n(levels[l], 1);  // warm caches and thread_local pack buffers
    double t = time_n(levels[l], iters[l]);
    while (t < 0.01 && iters[l] < (1L << 22)) {
      iters[l] *= 4;
      t = time_n(levels[l], iters[l]);
    }
    best[l] = t / static_cast<double>(iters[l]);
  }
  for (int r = 1; r < 5; ++r) {
    for (std::size_t l = 0; l < levels.size(); ++l) {
      best[l] = std::min(best[l], time_n(levels[l], iters[l]) /
                                      static_cast<double>(iters[l]));
    }
  }
  CmpResult res;
  res.name = k.name;
  res.flops = k.flops;
  res.scalar_s = best[0];
  res.simd_s = best[1];
  if (levels.size() > 2) res.avx512_s = best[2];
  return res;
}

std::vector<CmpResult> run_comparisons() {
  std::vector<CmpResult> out;
  for (const CmpKernel& k : make_cmp_kernels()) out.push_back(measure(k));
  return out;
}

void print_table(const std::vector<CmpResult>& results) {
  std::printf("%-28s %12s %12s %12s %9s\n", "kernel", "scalar GF/s",
              "avx2 GF/s", "avx512 GF/s", "speedup");
  for (const CmpResult& r : results) {
    std::printf("%-28s %12.3f %12.3f %12.3f %8.2fx\n", r.name.c_str(),
                r.gflops(r.scalar_s), r.gflops(r.simd_s),
                r.gflops(r.avx512_s),
                std::max(r.speedup(), r.avx512_speedup()));
  }
}

// --smoke: fail (exit 1) if the SIMD path lost to scalar on any kernel.
// kTolerance absorbs timer jitter on kernels where the two paths tie.
int run_smoke(const std::vector<CmpResult>& results) {
  constexpr double kTolerance = 1.15;
  print_table(results);
  if (simd::detected_level() == simd::Level::kScalar) {
    std::printf("perf_smoke: no SIMD level available on this host; "
                "nothing to gate.\n");
    return 0;
  }
  int failures = 0;
  for (const CmpResult& r : results) {
    if (r.simd_s > r.scalar_s * kTolerance) {
      std::printf("perf_smoke FAIL: %s avx2 %.3g s/iter vs scalar %.3g "
                  "s/iter (>%.2fx slower)\n",
                  r.name.c_str(), r.simd_s, r.scalar_s, kTolerance);
      ++failures;
    }
    if (r.avx512_s > 0 && r.avx512_s > r.scalar_s * kTolerance) {
      std::printf("perf_smoke FAIL: %s avx512 %.3g s/iter vs scalar %.3g "
                  "s/iter (>%.2fx slower)\n",
                  r.name.c_str(), r.avx512_s, r.scalar_s, kTolerance);
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("perf_smoke OK: simd >= scalar on all %zu kernels\n",
                results.size());
  }
  return failures == 0 ? 0 : 1;
}

int write_json(const std::vector<CmpResult>& results,
               const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  for (const CmpResult& r : results) {
    obs::JsonWriter w;
    w.field("kind", "kernel_bench")
        .field("name", r.name)
        .field("flops", r.flops)
        .field("scalar_s", r.scalar_s)
        .field("simd_s", r.simd_s)
        .field("avx512_s", r.avx512_s)
        .field("scalar_gflops", r.gflops(r.scalar_s))
        .field("simd_gflops", r.gflops(r.simd_s))
        .field("avx512_gflops", r.gflops(r.avx512_s))
        .field("speedup", r.speedup())
        .field("avx512_speedup", r.avx512_speedup())
        .field("threads",
               static_cast<double>(
                   tensor::ThreadPool::global().worker_count() + 1))
        .field("detected_level", simd::level_name(simd::detected_level()));
    out << w.str() << '\n';
  }
  out.close();
  // Re-read through the validator: a malformed row should fail the bench
  // run, not the first consumer of the trajectory file.
  std::size_t lines = 0;
  std::string error;
  if (!obs::validate_jsonl_file(path, &lines, &error)) {
    std::fprintf(stderr, "JSONL validation failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %zu kernel_bench rows to %s (validated)\n", lines,
              path.c_str());
  return 0;
}

// Minimal field extraction for the committed JSONL trajectory (an obs
// writer exists but no reader; the rows are flat and machine-written).
double json_number_field(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const auto p = line.find(pat);
  if (p == std::string::npos) return -1.0;
  return std::strtod(line.c_str() + p + pat.size(), nullptr);
}

std::string json_string_field(const std::string& line,
                              const std::string& key) {
  const std::string pat = "\"" + key + "\":\"";
  const auto p = line.find(pat);
  if (p == std::string::npos) return "";
  const auto q = line.find('\"', p + pat.size());
  return line.substr(p + pat.size(), q - (p + pat.size()));
}

// --diff: compare this run's scalar-vs-SIMD *speedups* against the
// committed trajectory. Ratios, not absolute GFLOP/s: the committed file
// was measured on one host class and raw throughput is not portable, but
// "avx2 is 6x scalar on this kernel" is. A kernel whose current speedup
// falls more than 15% below the committed one fails the gate; rows new to
// either side are reported, never failed. A kernel that trips the margin
// is re-timed (up to twice, keeping its best speedups) before the gate
// declares a regression: a loaded host skews a single scalar-vs-SIMD
// ratio far more than 15%, but only noise recovers on retry.
CmpResult measure_one(const std::string& name) {
  for (const CmpKernel& k : make_cmp_kernels()) {
    if (k.name == name) return measure(k);
  }
  return {};
}

int run_diff(const std::vector<CmpResult>& results, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "--diff: cannot open %s\n", path.c_str());
    return 1;
  }
  if (simd::detected_level() == simd::Level::kScalar) {
    std::printf("bench diff: no SIMD level on this host; nothing to gate.\n");
    return 0;
  }
  struct Committed {
    double speedup = 0;
    double avx512_speedup = 0;
  };
  std::map<std::string, Committed> committed;
  std::string line;
  while (std::getline(in, line)) {
    if (json_string_field(line, "kind") != "kernel_bench") continue;
    const std::string name = json_string_field(line, "name");
    if (name.empty()) continue;
    committed[name] = {json_number_field(line, "speedup"),
                       json_number_field(line, "avx512_speedup")};
  }
  constexpr double kMargin = 0.85;  // >15% speedup regression fails
  int failures = 0, compared = 0;
  for (const CmpResult& r : results) {
    const auto it = committed.find(r.name);
    if (it == committed.end()) {
      std::printf("bench diff: %s has no committed baseline (new row)\n",
                  r.name.c_str());
      continue;
    }
    double avx2_now = r.speedup();
    double avx512_now = r.avx512_speedup();
    auto trips = [&] {
      return (it->second.speedup > 0 && avx2_now > 0 &&
              avx2_now < it->second.speedup * kMargin) ||
             (it->second.avx512_speedup > 0 && avx512_now > 0 &&
              avx512_now < it->second.avx512_speedup * kMargin);
    };
    for (int attempt = 0; attempt < 2 && trips(); ++attempt) {
      std::printf("bench diff: re-timing %s (attempt %d)\n", r.name.c_str(),
                  attempt + 2);
      const CmpResult again = measure_one(r.name);
      avx2_now = std::max(avx2_now, again.speedup());
      avx512_now = std::max(avx512_now, again.avx512_speedup());
    }
    auto gate = [&](const char* tier, double now, double base) {
      if (base <= 0 || now <= 0) return;  // tier absent on either host
      ++compared;
      if (now < base * kMargin) {
        std::printf("bench diff FAIL: %s %s speedup %.2fx vs committed "
                    "%.2fx (>15%% regression)\n",
                    r.name.c_str(), tier, now, base);
        ++failures;
      }
    };
    gate("avx2", avx2_now, it->second.speedup);
    gate("avx512", avx512_now, it->second.avx512_speedup);
  }
  if (failures == 0) {
    std::printf("bench diff OK: %d tier speedups within 15%% of %s\n",
                compared, path.c_str());
  }
  return failures == 0 ? 0 : 1;
}

void register_cmp_benchmarks() {
  for (const CmpKernel& k : make_cmp_kernels()) {
    for (simd::Level lvl : {simd::Level::kScalar, simd::Level::kAvx2,
                            simd::Level::kAvx512}) {
      const std::string name =
          "cmp/" + k.name + "/" + simd::level_name(lvl);
      const double flops = k.flops;
      auto fn = k.run;
      benchmark::RegisterBenchmark(
          name.c_str(), [fn, flops, lvl](benchmark::State& state) {
            simd::ScopedLevel scoped(lvl);
            for (auto _ : state) fn();
            state.SetItemsProcessed(
                static_cast<std::int64_t>(state.iterations() * flops));
          });
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path, diff_path;
  std::vector<char*> bench_args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--diff") == 0 && i + 1 < argc) {
      diff_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      // Must land before the first kernel call: the global pool reads
      // PODNET_THREADS exactly once when it is first touched.
      setenv("PODNET_THREADS", argv[++i], /*overwrite=*/1);
    } else {
      bench_args.push_back(argv[i]);
    }
  }

  if (smoke || !json_path.empty() || !diff_path.empty()) {
    const std::vector<CmpResult> results = run_comparisons();
    int rc = 0;
    if (!json_path.empty()) {
      rc = write_json(results, json_path);
      if (!smoke) print_table(results);
    }
    if (!diff_path.empty()) {
      const int diff_rc = run_diff(results, diff_path);
      if (rc == 0) rc = diff_rc;
    }
    if (smoke) {
      const int smoke_rc = run_smoke(results);
      if (rc == 0) rc = smoke_rc;
    }
    return rc;
  }

  register_cmp_benchmarks();
  int bargc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bargc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bargc, bench_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
