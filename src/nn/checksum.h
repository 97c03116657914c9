// checksum.h — CRC32 (IEEE 802.3, poly 0xEDB88320) for file integrity.
//
// Shared by the "QMCU"/"QMCQ" v2 stream formats (serialize.cpp) and the
// "QMCP" plan-artifact section table (plan_artifact.cpp): the loader CRCs
// every section (megabytes of weight panels) on the cold-start path, and
// the writer CRCs them again at bake time.
//
// Two bodies compute the same value (same reflected polynomial, same
// init/final XOR), so existing streams and cross-architecture artifacts
// verify unchanged whichever one ran:
//
//   slicing-by-16  sixteen 256-entry tables break the per-byte dependency
//                  chain and consume 16 bytes per step (about 2 GB/s). It
//                  is the portable body, the QMCU_FORCE_SCALAR path, and
//                  the tail handler of the folding body.
//   pclmul         carry-less-multiply folding (Gopal et al., "Fast CRC
//                  Computation for Generic Polynomials Using PCLMULQDQ",
//                  Intel 2009): four 128-bit lanes fold 64 bytes per step,
//                  then a Barrett reduction yields the 32-bit remainder
//                  (about 15 GB/s). It is the crc32_fold entry of the
//                  AVX2 and AVX-VNNI kernel tables, filled when cpuid
//                  reports pclmul (nn/ops/simd/crc32_pclmul.cpp).
//
// crc32() dispatches through ops::simd::kernels(): the folding entry runs
// the whole 16-byte blocks of any input of 64 bytes or more, slicing-by-16
// the rest.
#pragma once

#include <cstddef>
#include <cstdint>

namespace qmcu::nn {

// One-shot CRC32 over a byte range, through the fastest body the live
// kernel table offers.
std::uint32_t crc32(const void* data, std::size_t size);

// One-shot CRC32 through the slicing-by-16 body only.
std::uint32_t crc32_table(const void* data, std::size_t size);

// Advances a raw CRC register (pre-inverted: start from 0xFFFFFFFF and XOR
// the result with 0xFFFFFFFF) over `size` bytes with slicing-by-16.
std::uint32_t crc32_update_table(std::uint32_t state, const void* data,
                                 std::size_t size);

// "pclmul" or "slicing-by-16": the body crc32() runs for a large input
// right now (it honours the live QMCU_FORCE_SCALAR).
const char* crc32_body_name();

}  // namespace qmcu::nn
