// Runtime SIMD dispatch for the compute hot path.
//
// Every hot kernel has a portable scalar tier (the reference that parity
// tests and benchmarks measure against, and the path on CPUs without AVX2)
// and two vector tiers, each compiled into its own translation unit:
// AVX2/FMA (`simd_avx2.cc`, `-mavx2 -mfma`) and AVX-512 (`simd_avx512.cc`,
// `-mavx512{f,bw,dq,vl}`). The elementwise, reduction, activation-backward,
// bf16 and per-channel kernels are written once, in vector_kernels.h, and
// each tier's TU instantiates them with its own flags. Hand-written per tier
// are only the GEMM microkernels and packing, the polynomial exp and the
// passes built on it (declared below), and the direct-convolution kernels
// (conv_direct.h). Which tier runs is decided once at startup:
//
//   compile time  — each SIMD TU only exists when the compiler accepts its
//                   flags (PODNET_HAVE_AVX2 / PODNET_HAVE_AVX512 are
//                   defined for the tensor library's own sources in that
//                   case; the AVX-512 TU is only added on top of AVX2);
//   run time      — cpuid must report the feature set and the OS must have
//                   enabled the register state via xgetbv (YMM for AVX2;
//                   opmask+ZMM for AVX-512), so a binary built with both
//                   SIMD TUs still runs correctly on older CPUs;
//   environment   — PODNET_SIMD=scalar|avx2|avx512 overrides the detected
//                   level, clamped to what the host supports (requesting
//                   avx512 on an AVX2-only host gets avx2, not a crash),
//                   which is how the perf harness and parity tests time
//                   every path in one process.
//
// The dispatch decision is a relaxed atomic read per kernel call; kernels
// themselves never re-detect.
#pragma once

#include <cstddef>
#include <cstdint>

namespace podnet::tensor::simd {

// Levels form a total order: every level's instruction set is a superset
// of the previous one's, so clamping an override is min(request, detected).
enum class Level {
  kScalar = 0,  // portable reference loops
  kAvx2 = 1,    // AVX2 + FMA (256-bit)
  kAvx512 = 2,  // AVX-512 F/BW/DQ/VL (512-bit)
};

const char* level_name(Level level);

// Best level this binary can run here: compile-time availability of the
// SIMD TUs intersected with cpuid/xgetbv. Computed once, then cached.
Level detected_level();

// Level the dispatching kernels actually use. Starts as detected_level()
// unless the PODNET_SIMD environment variable overrides it ("scalar",
// "avx2", or "avx512"; a request above what the host supports is clamped
// down to the detected level).
Level active_level();

// Overrides the active level, clamped to detected_level(); returns the
// previous one. Intended for parity tests and level-vs-level benchmarks.
// Takes effect for subsequent kernel calls; do not flip it while kernels
// are in flight on other threads.
Level set_level(Level level);

// RAII level override for tests/benchmarks.
class ScopedLevel {
 public:
  explicit ScopedLevel(Level level) : prev_(set_level(level)) {}
  ~ScopedLevel() { set_level(prev_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  Level prev_;
};

// Kernels built on the polynomial exp, hand-written per vector tier: each
// SIMD TU defines the specialization for its level (see ops.h for sigmoid
// and swish). exp_sub sets row[c] = exp(row[c] - m). Only the tensor
// library's own TUs may call these, after checking active_level().
template <Level L>
void sigmoid(const float* x, float* y, std::size_t n);
template <Level L>
void swish(const float* x, float* sig, float* y, std::size_t n);
template <Level L>
void exp_sub(float* row, std::size_t n, float m);

#if defined(PODNET_HAVE_AVX2)
template <>
void sigmoid<Level::kAvx2>(const float* x, float* y, std::size_t n);
template <>
void swish<Level::kAvx2>(const float* x, float* sig, float* y, std::size_t n);
template <>
void exp_sub<Level::kAvx2>(float* row, std::size_t n, float m);

// GEMM kernels implemented in simd_avx2.cc. Only the tensor library's own
// translation units see these declarations (the define is PRIVATE to the
// target); everything else goes through the dispatching wrappers in
// gemm.h. Callers must have checked active_level() or the recorded PackedB
// layout.
namespace avx2 {

// Packs op(B) (k x n) into zero-padded column panels of width kNr for the
// 6x16 microkernel.
inline constexpr std::int64_t kMr = 6;
inline constexpr std::int64_t kNr = 16;
std::size_t packed_b_size(std::int64_t k, std::int64_t n);
void pack_b(bool trans_b, std::int64_t k, std::int64_t n, const float* b,
            std::int64_t ldb, bool to_bf16, float* dst);
// One tile of C += alpha * op(A) * Bpacked: rows [m0, m1) x panels
// [jp0, jp1) of the kNr-wide panel array produced by pack_b. A is packed
// into register-friendly kMr-row panels per (MC x KC) block in a
// thread_local buffer, so concurrent tiles on different threads never
// share pack state. The 2D tile scheduler in gemm.cc decides the grid;
// the beta pre-pass happens there too.
void gemm_tile(bool trans_a, std::int64_t m0, std::int64_t m1,
               std::int64_t jp0, std::int64_t jp1, std::int64_t n,
               std::int64_t k, float alpha, const float* a, std::int64_t lda,
               const float* packed_b, float* c, std::int64_t ldc,
               bool to_bf16);

}  // namespace avx2
#endif  // PODNET_HAVE_AVX2

#if defined(PODNET_HAVE_AVX512)
template <>
void sigmoid<Level::kAvx512>(const float* x, float* y, std::size_t n);
template <>
void swish<Level::kAvx512>(const float* x, float* sig, float* y,
                           std::size_t n);
template <>
void exp_sub<Level::kAvx512>(float* row, std::size_t n, float m);

// GEMM kernels implemented in simd_avx512.cc (same visibility contract as
// the avx2 namespace above): an 8x32 microkernel (8 rows x 2 ZMM
// accumulator columns, embedded-broadcast A operands), twice the N-register
// block of the AVX2 kernel, so the packed-B panels are 32 floats wide and
// incompatible with avx2::pack_b output — PackedB records which width it
// was packed with.
namespace avx512 {

inline constexpr std::int64_t kMr = 8;
inline constexpr std::int64_t kNr = 32;
std::size_t packed_b_size(std::int64_t k, std::int64_t n);
void pack_b(bool trans_b, std::int64_t k, std::int64_t n, const float* b,
            std::int64_t ldb, bool to_bf16, float* dst);
void gemm_tile(bool trans_a, std::int64_t m0, std::int64_t m1,
               std::int64_t jp0, std::int64_t jp1, std::int64_t n,
               std::int64_t k, float alpha, const float* a, std::int64_t lda,
               const float* packed_b, float* c, std::int64_t ldc,
               bool to_bf16);

}  // namespace avx512
#endif  // PODNET_HAVE_AVX512

}  // namespace podnet::tensor::simd
