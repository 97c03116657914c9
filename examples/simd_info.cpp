// simd_info — prints the runtime-detected SIMD ISA and which microkernels
// the Simd tier resolved. CI runs this after every build so the log always
// records which tier actually executed the suite (and whether
// QMCU_FORCE_SCALAR pinned it to the scalar fallback).
#include <cstdio>

#include "nn/ops/simd/cpu_features.h"
#include "nn/ops/simd/simd_kernels.h"

int main() {
  using namespace qmcu::nn::ops::simd;
  const Isa isa = detected_isa();
  std::printf("detected ISA: %s\n", isa_name(isa));
  const DotIsa dot = detected_dot_isa();
  std::printf("detected dot ISA: %s%s\n", dot_isa_name(dot),
              dot_forced_off() ? " (demoted: QMCU_FORCE_NO_DOT)" : "");
  const SimdKernels* k = kernels();
  if (k == nullptr) {
    std::printf("Simd tier: scalar fallbacks (no microkernel table)\n");
    return 0;
  }
  std::printf("Simd tier table: %s\n", k->name);
  std::printf("  gemm generation: %s (%s)\n",
              k->gemm_dot ? "dot-product" : "pair-madd",
              k->gemm_block_i8 ? k->name : "scalar");
  std::printf("  gemm_block_i8:   %s\n", k->gemm_block_i8 ? "simd" : "scalar");
  std::printf("  requant_i32_row: %s\n",
              k->requant_i32_row ? "simd" : "scalar");
  std::printf("  dw_accumulate:   %s\n",
              k->dw_accumulate ? "simd"
              : k->dw_conv_row ? "not used (dw_conv_row)"
                               : "scalar");
  std::printf("  requant_i8_row:  %s\n",
              k->requant_i8_row ? "simd" : "scalar");
  std::printf("  unpack_body:     %s\n", k->unpack_body ? "simd" : "scalar");
  // The fused entries have no scalar twin: null runs the unfused pair.
  std::printf("  gemm_requant:       %s\n",
              k->gemm_requant ? "fused" : "unfused");
  std::printf("  dw_conv_row:        %s\n",
              k->dw_conv_row ? "fused" : "unfused");
  std::printf("  crc32_fold:         %s\n",
              k->crc32_fold ? "pclmul" : "slicing-by-16");
  return 0;
}
