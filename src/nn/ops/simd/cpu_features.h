// cpu_features.h — runtime ISA detection for the Simd kernel tier.
//
// The hardware probe runs once per process. The force variables (any
// value other than "0" or empty counts as set) are read on every call, so
// a test or bench can pin one around a single backend's construction,
// where the backend snapshots its table. QMCU_FORCE_SCALAR reports
// Isa::None, so kernels() hands out no table and every entry runs its
// scalar fallback: the CI scalar leg and the parity tests' scalar side.
//
// Layered on top of the base ISA is the dot-product *generation*: CPUs
// that fuse the 4-element int8 multiply-reduce into one instruction
// (AVX-VNNI's vpdpbusd, AArch64 dotprod's sdot) get a table whose
// gemm_block_i8 retires 4 k-elements per lane instead of the pair-madd
// kernels' 2. QMCU_FORCE_NO_DOT demotes the dispatch to the base
// pair-madd table, so a single process can compare both generations.
#pragma once

namespace qmcu::nn::ops::simd {

enum class Isa { None, Avx2, Neon };

// The ISA the running CPU supports, or Isa::None under QMCU_FORCE_SCALAR.
Isa detected_isa();

// "none" / "avx2" / "neon" — what CI logs as the detected ISA.
const char* isa_name(Isa isa);

// True when detected_isa() selects a real microkernel table.
bool available();

// Dot-product instruction generation layered on the base ISA.
enum class DotIsa { None, AvxVnni, NeonDot };

// The dot-product generation the running CPU supports, or DotIsa::None
// under QMCU_FORCE_SCALAR (Isa::None implies DotIsa::None).
DotIsa detected_dot_isa();

// "none" / "avx-vnni" / "neon-dot" — what CI logs for the dot probe.
const char* dot_isa_name(DotIsa isa);

// True when QMCU_FORCE_NO_DOT demotes the dispatch to the pair-madd table.
bool dot_forced_off();

// True when kernels() hands out a dot-product generation right now:
// detected_dot_isa() found one, its table is compiled into this binary,
// and QMCU_FORCE_NO_DOT is not set.
bool dot_available();

}  // namespace qmcu::nn::ops::simd
