// packed_map.h — quantized branch-step feature maps as the arena holds them.
//
// The compiled patch engine stores every sub-byte (2- or 4-bit) branch-step
// feature map bit-packed in the quant/bitpack.h format, so the planned
// arena charges a map elements·b/8 bytes — the Mem(i, b) that the VDQS
// memory constraint assumes — instead of one byte per element. One map row
// (w·c elements, HWC order) is packed per `row_bytes` stride, padded to
// quant::kPackedRowAlign elements. Int8 maps keep the dense HWC layout
// (row_bytes = w·c) and view as a plain QTensor.
//
// Kernels compute on int8 lanes, so consumers unpack a row band of a packed
// map into scratch, run the pad-free kernel on it and pack the band they
// produced: scratch stays proportional to one band, never to a whole map.
// The halo crop here (which may start mid-byte) and the packed-tile merges
// of region_pool.h are that unpacking side.
#pragma once

#include <cstdint>
#include <span>

#include "nn/shape.h"
#include "nn/tensor.h"
#include "patch/receptive_field.h"

namespace qmcu::nn::ops::simd {
struct SimdKernels;
}  // namespace qmcu::nn::ops::simd

namespace qmcu::patch {

struct PackedMap {
  std::uint8_t* data = nullptr;
  nn::TensorShape shape{};
  nn::QuantParams params{};
  std::int64_t row_bytes = 0;  // stride between map rows

  // Row stride of a map shaped `s` stored at `bits`: the packed, padded row
  // for 2/4 bits, w·c bytes at 8.
  [[nodiscard]] static std::int64_t row_stride(const nn::TensorShape& s,
                                               int bits);
  // Arena bytes of such a map: row_stride · h.
  [[nodiscard]] static std::int64_t storage_bytes(const nn::TensorShape& s,
                                                  int bits) {
    return row_stride(s, bits) * s.h;
  }

  [[nodiscard]] bool packed() const { return params.bits < 8; }
  [[nodiscard]] std::int64_t bytes() const { return row_bytes * shape.h; }
  [[nodiscard]] std::int64_t row_elements() const {
    return static_cast<std::int64_t>(shape.w) * shape.c;
  }
  // The dense int8 view of an unpacked map (throws for a packed one).
  [[nodiscard]] nn::QTensor dense() const;

  // Unpacks elements [first, first + count) of row y into `dst` (int8
  // lanes); `first` may fall mid-byte. `simd` selects the vector expander
  // (null = scalar; bit-identical).
  void unpack(int y, std::int64_t first, std::int64_t count, std::int8_t* dst,
              const nn::ops::simd::SimdKernels* simd) const;
  // Packs rows [y0, y0 + band.shape().h) of a packed map from the dense
  // band `band` (same width and channels).
  void store_rows(int y0, const nn::QTensor& band) const;
};

// Binds a map of `shape` at `bits` over `bytes` (at least storage_bytes).
PackedMap bind_packed_map(std::uint8_t* bytes, const nn::TensorShape& shape,
                          const nn::QuantParams& params);

// The halo crop from a map: region `want` (unclamped; out-of-bounds
// positions take the producer's zero point, as crop_from_region_q_into)
// of a map with full extent `full`, read from `have` covering `avail`,
// into the dense `out` (want extent, `have`'s params).
void crop_packed_into(const PackedMap& have, const Region& avail,
                      const Region& want, const nn::TensorShape& full,
                      nn::QTensor& out,
                      const nn::ops::simd::SimdKernels* simd);

}  // namespace qmcu::patch
