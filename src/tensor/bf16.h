// Software bfloat16: the 16-bit brain floating point format used by TPUs.
//
// bf16 keeps the 8-bit exponent of fp32 and truncates the mantissa to 7 bits,
// so conversion is a simple bit operation on the upper half of an IEEE-754
// float. PodNet uses round-to-nearest-even, matching TPU hardware semantics.
//
// Mixed-precision convolutions (paper Sec 3.5) round the convolution
// *multiplicands* to bf16 while accumulating in fp32; see gemm.h.
#pragma once

#include <bit>
#include <cstdint>
#include <span>

namespace podnet::tensor {

struct bf16 {
  std::uint16_t bits = 0;

  bf16() = default;
  explicit bf16(float f) { bits = round_bits(f); }

  // Round-to-nearest-even conversion from fp32, as performed by TPU matrix
  // units. NaN payloads are preserved in the upper bits.
  static std::uint16_t round_bits(float f) {
    std::uint32_t x = std::bit_cast<std::uint32_t>(f);
    // NaN: just truncate but force a mantissa bit so it stays NaN.
    if ((x & 0x7fffffffu) > 0x7f800000u) {
      return static_cast<std::uint16_t>((x >> 16) | 0x0040u);
    }
    const std::uint32_t lsb = (x >> 16) & 1u;
    const std::uint32_t rounding_bias = 0x7fffu + lsb;
    return static_cast<std::uint16_t>((x + rounding_bias) >> 16);
  }

  float to_float() const {
    return std::bit_cast<float>(static_cast<std::uint32_t>(bits) << 16);
  }

  bool operator==(const bf16& o) const { return bits == o.bits; }
};

// Rounds a float through bf16 and back: f32 -> bf16 -> f32. This is the
// value a TPU matrix unit would actually multiply.
inline float bf16_round(float f) { return bf16(f).to_float(); }

// In-place simulation of storing a buffer in bf16. Dispatches to the
// bit-exact vector kernel of the active SIMD tier when there is one
// (bf16.cc); the rounded bits are identical on every path, so
// mixed-precision runs stay deterministic across hosts with different SIMD
// levels.
void bf16_round_inplace(std::span<float> xs);

}  // namespace podnet::tensor
