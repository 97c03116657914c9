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
              : k->dw_conv     ? "not used (dw_conv)"
                               : "scalar");
  std::printf("  requant_i8_row:  %s\n",
              k->requant_i8_row ? "simd" : "scalar");
  std::printf("  unpack_body:     %s\n", k->unpack_body ? "simd" : "scalar");
  // The fused entries have no scalar twin: null runs the unfused pair.
  std::printf("  gemm_requant:       %s\n",
              k->gemm_requant ? "fused" : "unfused");
  std::printf("  dw_conv:            %s\n",
              k->dw_conv ? k->dw_body : "unfused (per-pixel loop)");
  std::printf("  crc32_fold:         %s\n",
              k->crc32_fold ? "pclmul" : "slicing-by-16");
  // The base and dot tables this CPU runs (QMCU_FORCE_NO_DOT only changes
  // which one dispatches): the depthwise body each one carries.
  std::printf("depthwise body per table:\n");
  const SimdKernels* base = isa == Isa::Avx2   ? avx2_kernels()
                            : isa == Isa::Neon ? neon_kernels()
                                               : nullptr;
  const SimdKernels* dot_table = dot == DotIsa::AvxVnni   ? avx2_vnni_kernels()
                                 : dot == DotIsa::NeonDot ? neon_dot_kernels()
                                                          : nullptr;
  for (const SimdKernels* t : {base, dot_table}) {
    if (t == nullptr) continue;
    std::printf("  %-10s %s\n", t->name,
                t->dw_conv ? t->dw_body : "per-pixel dw_accumulate loop");
  }
  return 0;
}
