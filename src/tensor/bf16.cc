#include "tensor/bf16.h"

#include "tensor/vector_kernels.h"

namespace podnet::tensor {

void bf16_round_inplace(std::span<float> xs) {
  kernels::on_level(
      [&](auto lvl) { kernels::bf16_round<lvl()>(xs.data(), std::ssize(xs)); },
      [&] { for (float& x : xs) x = bf16_round(x); });
}

}  // namespace podnet::tensor
