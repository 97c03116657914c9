// bitpack.h — CMix-NN style sub-byte packing of quantized activations.
//
// Kernels compute on unpacked int8 lanes (see nn/ops/int8_kernels.h); the
// packed form is what lives in SRAM between layers, and its size is what
// the memory models charge. The compiled patch engine stores every
// sub-byte branch-step feature map in this format, one packed row per map
// row (patch/packed_map.h), and unpacks a row band at a time for the
// kernels. Packing is little-endian within the byte: element 0 occupies the
// least-significant field. Values are stored in two's complement truncated
// to the field width, so round-tripping any value inside the b-bit signed
// range is exact.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/check.h"

namespace qmcu::nn::ops::simd {
struct SimdKernels;
}  // namespace qmcu::nn::ops::simd

namespace qmcu::quant {

// Number of bytes needed to pack `count` elements at `bits` per element.
std::int64_t packed_size_bytes(std::int64_t count, int bits);

// Packed feature-map rows are padded to a multiple of this many elements
// (after MiCo-Lib), so a vector body never meets a ragged row tail.
inline constexpr std::int64_t kPackedRowAlign = 32;

// Bytes of one packed row of `count` elements at `bits` (2 or 4): the
// count rounded up to kPackedRowAlign, times bits / 8.
std::int64_t packed_row_bytes(std::int64_t count, int bits);

// Packs int8 values (each must fit the signed `bits` range) into bytes.
std::vector<std::uint8_t> pack(std::span<const std::int8_t> values, int bits);

// Unpacks `count` elements. Inverse of pack for in-range values.
std::vector<std::int8_t> unpack(std::span<const std::uint8_t> packed,
                                std::int64_t count, int bits);

// Allocation-free unpack of the element range [first, first + count) into
// `dst` (which must hold `count` int8 lanes): how a packed patch map's
// consumers expand one row span at a time instead of materializing a full
// unpacked tensor. `simd` (the Simd kernel tier's table; null = scalar)
// runs the whole-byte body on its vector expander — bit-identical either
// way, so the caller's tier choice, not a global, decides which code
// executes.
void unpack_into(std::span<const std::uint8_t> packed, std::int64_t first,
                 std::int64_t count, int bits, std::int8_t* dst,
                 const nn::ops::simd::SimdKernels* simd = nullptr);

// Allocation-free pack of `count` int8 values into packed_size_bytes(count,
// bits) bytes at `dst`, element 0 in the low field of dst[0]; unused fields
// of the last byte are zero. Values are truncated to the field width
// without a range check: the caller's values come from kernels that clamp
// to the b-bit range. bits = 2 or 4.
void pack_into(const std::int8_t* src, std::int64_t count, int bits,
               std::uint8_t* dst);

}  // namespace qmcu::quant
