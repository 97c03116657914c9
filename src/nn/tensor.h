// tensor.h — float and quantized tensors (NHWC, batch 1).
//
// Two concrete tensor types keep the hot kernel loops monomorphic:
//   Tensor   — float reference data (calibration, golden outputs)
//   QTensor  — quantized data held unpacked in int8 storage together with
//              its QuantParams. For sub-byte params (bits < 8) the storage
//              is still one int8 per element — exactly the form CMix-NN
//              kernels compute on after unpacking — and storage_bytes()
//              reports the packed size. Where a sub-byte map lives in an
//              arena between layers it is stored packed instead: the
//              compiled patch engine binds sub-byte branch-step maps as
//              patch::PackedMap (quant/bitpack.h wire format) and unpacks a
//              row band at a time into QTensor scratch for the kernels.
//
// Both types either own their storage (the default) or *borrow* it from a
// caller-provided span — the form the compiled arena executors use to bind
// feature maps onto planned tensor-arena offsets without per-layer heap
// allocation. Borrowed tensors behave identically through the public API;
// copying any tensor always deep-copies into fresh owned storage, so a
// value escaping an arena (e.g. a returned network output) is self-owned.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/check.h"
#include "nn/quant_params.h"
#include "nn/shape.h"

namespace qmcu::nn {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(TensorShape shape)
      : shape_(shape),
        owned_(static_cast<std::size_t>(shape.elements()), 0.0f),
        view_(owned_) {
    QMCU_REQUIRE(shape.valid(), "tensor shape must be positive");
  }
  Tensor(TensorShape shape, std::vector<float> data)
      : shape_(shape), owned_(std::move(data)), view_(owned_) {
    QMCU_REQUIRE(shape.valid(), "tensor shape must be positive");
    QMCU_REQUIRE(
        static_cast<std::int64_t>(owned_.size()) == shape.elements(),
        "data size must match shape");
  }
  // Borrowed storage: the tensor aliases `storage` (not owned, not resized).
  // The caller guarantees `storage` outlives every read/write through this
  // view; copying the view deep-copies into owned storage.
  Tensor(TensorShape shape, std::span<float> storage)
      : shape_(shape), view_(storage) {
    QMCU_REQUIRE(shape.valid(), "tensor shape must be positive");
    QMCU_REQUIRE(
        static_cast<std::int64_t>(storage.size()) == shape.elements(),
        "storage size must match shape");
  }

  Tensor(const Tensor& other)
      : shape_(other.shape_),
        owned_(other.view_.begin(), other.view_.end()),
        view_(owned_) {}
  Tensor& operator=(const Tensor& other) {
    if (this != &other) {
      shape_ = other.shape_;
      owned_.assign(other.view_.begin(), other.view_.end());
      view_ = owned_;
    }
    return *this;
  }
  // Moving a vector keeps its heap buffer, so the view stays valid across
  // the transfer; the source is left empty so it cannot alias storage it
  // no longer owns.
  Tensor(Tensor&& other) noexcept
      : shape_(other.shape_),
        owned_(std::move(other.owned_)),
        view_(other.view_) {
    other.shape_ = {};
    other.view_ = {};
  }
  Tensor& operator=(Tensor&& other) noexcept {
    if (this != &other) {
      shape_ = other.shape_;
      owned_ = std::move(other.owned_);
      view_ = other.view_;
      other.shape_ = {};
      other.view_ = {};
    }
    return *this;
  }

  [[nodiscard]] const TensorShape& shape() const { return shape_; }
  [[nodiscard]] std::span<const float> data() const { return view_; }
  [[nodiscard]] std::span<float> data() { return view_; }
  [[nodiscard]] bool owns_storage() const {
    return view_.empty() || view_.data() == owned_.data();
  }

  [[nodiscard]] float at(int y, int x, int c) const {
    return view_[static_cast<std::size_t>(flat_index(shape_, y, x, c))];
  }
  [[nodiscard]] float& at(int y, int x, int c) {
    return view_[static_cast<std::size_t>(flat_index(shape_, y, x, c))];
  }

  [[nodiscard]] std::int64_t elements() const { return shape_.elements(); }

 private:
  TensorShape shape_{};
  std::vector<float> owned_;
  std::span<float> view_;
};

class QTensor {
 public:
  QTensor() = default;
  QTensor(TensorShape shape, QuantParams params)
      : shape_(shape),
        params_(params),
        owned_(static_cast<std::size_t>(shape.elements()), 0),
        view_(owned_) {
    QMCU_REQUIRE(shape.valid(), "tensor shape must be positive");
  }
  // Borrowed storage (see Tensor): binds the quantized view onto
  // caller-managed memory, e.g. a planned tensor-arena slot.
  QTensor(TensorShape shape, QuantParams params, std::span<std::int8_t> storage)
      : shape_(shape), params_(params), view_(storage) {
    QMCU_REQUIRE(shape.valid(), "tensor shape must be positive");
    QMCU_REQUIRE(
        static_cast<std::int64_t>(storage.size()) == shape.elements(),
        "storage size must match shape");
  }

  QTensor(const QTensor& other)
      : shape_(other.shape_),
        params_(other.params_),
        owned_(other.view_.begin(), other.view_.end()),
        view_(owned_) {}
  QTensor& operator=(const QTensor& other) {
    if (this != &other) {
      shape_ = other.shape_;
      params_ = other.params_;
      owned_.assign(other.view_.begin(), other.view_.end());
      view_ = owned_;
    }
    return *this;
  }
  QTensor(QTensor&& other) noexcept
      : shape_(other.shape_),
        params_(other.params_),
        owned_(std::move(other.owned_)),
        view_(other.view_) {
    other.shape_ = {};
    other.view_ = {};
  }
  QTensor& operator=(QTensor&& other) noexcept {
    if (this != &other) {
      shape_ = other.shape_;
      params_ = other.params_;
      owned_ = std::move(other.owned_);
      view_ = other.view_;
      other.shape_ = {};
      other.view_ = {};
    }
    return *this;
  }

  [[nodiscard]] const TensorShape& shape() const { return shape_; }
  [[nodiscard]] const QuantParams& params() const { return params_; }
  [[nodiscard]] std::span<const std::int8_t> data() const { return view_; }
  [[nodiscard]] std::span<std::int8_t> data() { return view_; }
  [[nodiscard]] bool owns_storage() const {
    return view_.empty() || view_.data() == owned_.data();
  }

  [[nodiscard]] std::int8_t at(int y, int x, int c) const {
    return view_[static_cast<std::size_t>(flat_index(shape_, y, x, c))];
  }
  [[nodiscard]] std::int8_t& at(int y, int x, int c) {
    return view_[static_cast<std::size_t>(flat_index(shape_, y, x, c))];
  }

  // Footprint of this tensor once bit-packed for storage on the MCU.
  [[nodiscard]] std::int64_t storage_bytes() const {
    return shape_.bytes(params_.bits);
  }

  [[nodiscard]] std::int64_t elements() const { return shape_.elements(); }

 private:
  TensorShape shape_{};
  QuantParams params_{};
  std::vector<std::int8_t> owned_;
  std::span<std::int8_t> view_;
};

// Quantizes every element of `t` with `params` (saturating). A NaN element
// has no code: these throw std::invalid_argument.
QTensor quantize(const Tensor& t, const QuantParams& params);

// Same, writing into a pre-shaped destination (its params are the target).
void quantize_into(const Tensor& t, QTensor& out);

// The row routine behind both: dst[i] = p.quantize(src[i]) for i in
// [0, n) — a true divide, round half to even, + zero point, clamp — in one
// vectorizable pass. Throws std::invalid_argument if any src[i] is NaN
// (dst is then partly written).
void quantize_row(const float* src, std::int64_t n, const QuantParams& p,
                  std::int8_t* dst);

// Dequantizes `q` back to float.
Tensor dequantize(const QTensor& q);
void dequantize_into(const QTensor& q, Tensor& out);

// Quantize-dequantize round trip: the float tensor a b-bit deployment would
// effectively compute on. Used by the entropy/accuracy analyses.
Tensor fake_quantize(const Tensor& t, const QuantParams& params);

// Min / max over the tensor data (returns {0, 0} for empty tensors): for
// NaN-free data the first minimal and the last maximal element, as
// std::minmax_element picks them (so the sign of a zero bound matches it
// too), in one vectorized pass. A NaN element is skipped unless it comes
// first, which makes the result NaN.
struct MinMax {
  float min_v = 0.0f;
  float max_v = 0.0f;
};
MinMax tensor_min_max(const Tensor& t);

}  // namespace qmcu::nn
