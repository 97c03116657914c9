#include "patch/packed_map.h"

#include "patch/region_crop.h"
#include "quant/bitpack.h"

namespace qmcu::patch {

std::int64_t PackedMap::row_stride(const nn::TensorShape& s, int bits) {
  const std::int64_t n = static_cast<std::int64_t>(s.w) * s.c;
  return bits < 8 ? quant::packed_row_bytes(n, bits) : n;
}

nn::QTensor PackedMap::dense() const {
  QMCU_ENSURE(!packed(), "a packed map has no dense view");
  return nn::QTensor(
      shape, params,
      std::span<std::int8_t>(reinterpret_cast<std::int8_t*>(data),
                             static_cast<std::size_t>(shape.elements())));
}

void PackedMap::unpack(int y, std::int64_t first, std::int64_t count,
                       std::int8_t* dst,
                       const nn::ops::simd::SimdKernels* simd) const {
  quant::unpack_into(std::span<const std::uint8_t>(
                         data + y * row_bytes,
                         static_cast<std::size_t>(row_bytes)),
                     first, count, params.bits, dst, simd);
}

void PackedMap::store_rows(int y0, const nn::QTensor& band) const {
  QMCU_ENSURE(band.shape().w == shape.w && band.shape().c == shape.c &&
                  y0 >= 0 && y0 + band.shape().h <= shape.h,
              "band does not fit the map");
  const std::int64_t n = row_elements();
  const std::int8_t* src = band.data().data();
  for (int y = 0; y < band.shape().h; ++y, src += n) {
    quant::pack_into(src, n, params.bits, data + (y0 + y) * row_bytes);
  }
}

PackedMap bind_packed_map(std::uint8_t* bytes, const nn::TensorShape& shape,
                          const nn::QuantParams& params) {
  return PackedMap{bytes, shape, params,
                   PackedMap::row_stride(shape, params.bits)};
}

void crop_packed_into(const PackedMap& have, const Region& avail,
                      const Region& want, const nn::TensorShape& full,
                      nn::QTensor& out,
                      const nn::ops::simd::SimdKernels* simd) {
  QMCU_REQUIRE(have.shape.h == avail.y.size() && have.shape.w == avail.x.size(),
               "map extents must match its declared region");
  const int c = have.shape.c;
  QMCU_REQUIRE(out.shape() == nn::TensorShape(want.y.size(), want.x.size(), c),
               "crop destination shape mismatch");
  QMCU_REQUIRE(out.params() == have.params,
               "crop destination must carry the source params");
  crop_rows_with(avail, want, full, c,
                 static_cast<std::int8_t>(have.params.zero_point),
                 out.data().data(),
                 [&](std::int8_t* dst, int y, std::int64_t first,
                     std::int64_t n) { have.unpack(y, first, n, dst, simd); });
}

}  // namespace qmcu::patch
