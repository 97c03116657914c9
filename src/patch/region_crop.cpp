#include "patch/region_crop.h"

namespace qmcu::patch {

void crop_from_region_into(const nn::Tensor& have, const Region& avail,
                           const Region& want, const nn::TensorShape& full,
                           nn::Tensor& out) {
  QMCU_REQUIRE(have.shape().h == avail.y.size() &&
                   have.shape().w == avail.x.size(),
               "tensor extents must match its declared region");
  const int c = have.shape().c;
  QMCU_REQUIRE(out.shape() == nn::TensorShape(want.y.size(), want.x.size(), c),
               "crop destination shape mismatch");
  crop_rows(have.data().data(), avail, want, full, c, 0.0f, out.data().data(),
            CopySpan{});
}

nn::Tensor crop_from_region(const nn::Tensor& have, const Region& avail,
                            const Region& want,
                            const nn::TensorShape& full) {
  nn::Tensor out(
      nn::TensorShape{want.y.size(), want.x.size(), have.shape().c});
  crop_from_region_into(have, avail, want, full, out);
  return out;
}

void crop_from_region_q_into(const nn::QTensor& have, const Region& avail,
                             const Region& want, const nn::TensorShape& full,
                             nn::QTensor& out) {
  QMCU_REQUIRE(have.shape().h == avail.y.size() &&
                   have.shape().w == avail.x.size(),
               "tensor extents must match its declared region");
  const int c = have.shape().c;
  QMCU_REQUIRE(out.shape() == nn::TensorShape(want.y.size(), want.x.size(), c),
               "crop destination shape mismatch");
  QMCU_REQUIRE(out.params() == have.params(),
               "crop destination must carry the source params");
  crop_rows(have.data().data(), avail, want, full, c,
            static_cast<std::int8_t>(have.params().zero_point),
            out.data().data(), CopySpan{});
}

}  // namespace qmcu::patch
