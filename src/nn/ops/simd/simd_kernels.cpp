#include "nn/ops/simd/simd_kernels.h"

#include "nn/ops/simd/cpu_features.h"

namespace qmcu::nn::ops::simd {

namespace {

const SimdKernels* base_table() {
  switch (detected_isa()) {
    case Isa::Avx2:
      return avx2_kernels();
    case Isa::Neon:
      return neon_kernels();
    case Isa::None:
      break;
  }
  return nullptr;
}

// The dot-generation table for the detected probe, independent of the
// live QMCU_FORCE_NO_DOT state; null under QMCU_FORCE_SCALAR, when the CPU
// lacks the instructions, or when the generation's TU was compiled out.
const SimdKernels* dot_table() {
  switch (detected_dot_isa()) {
    case DotIsa::AvxVnni:
      return avx2_vnni_kernels();
    case DotIsa::NeonDot:
      return neon_dot_kernels();
    case DotIsa::None:
      break;
  }
  return nullptr;
}

}  // namespace

const SimdKernels* kernels() {
  // Every force variable is re-read per call (see cpu_features.h).
  const SimdKernels* dot = dot_table();
  if (dot != nullptr && !dot_forced_off()) return dot;
  return base_table();
}

bool dot_available() { return dot_table() != nullptr && !dot_forced_off(); }

}  // namespace qmcu::nn::ops::simd
