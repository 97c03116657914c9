#include "nn/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace qmcu::nn {

QTensor quantize(const Tensor& t, const QuantParams& params) {
  QTensor out(t.shape(), params);
  quantize_into(t, out);
  return out;
}

void quantize_into(const Tensor& t, QTensor& out) {
  QMCU_REQUIRE(out.shape() == t.shape(), "quantize destination shape mismatch");
  quantize_row(t.data().data(), t.elements(), out.params(),
               out.data().data());
}

void quantize_row(const float* __restrict src, std::int64_t n,
                  const QuantParams& p, std::int8_t* __restrict dst) {
  QMCU_ENSURE(p.scale > 0.0f, "quantization scale must be positive");
  const float scale = p.scale;
  const auto zp = static_cast<float>(p.zero_point);
  const auto lo = static_cast<float>(p.qmin());
  const auto hi = static_cast<float>(p.qmax());
  // QuantParams::quantize lane for lane. The clamp is spelled so that NaN
  // lands on `lo` instead of reaching the int conversion (undefined
  // behaviour); the flag then rejects the row.
  int nan = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    float q = std::nearbyint(src[i] / scale) + zp;
    nan |= static_cast<int>(q != q);
    q = q >= lo ? q : lo;
    q = q <= hi ? q : hi;
    dst[i] = static_cast<std::int8_t>(static_cast<std::int32_t>(q));
  }
  QMCU_REQUIRE(nan == 0, "cannot quantize NaN: the input holds a NaN value");
}

Tensor dequantize(const QTensor& q) {
  Tensor out(q.shape());
  dequantize_into(q, out);
  return out;
}

void dequantize_into(const QTensor& q, Tensor& out) {
  QMCU_REQUIRE(out.shape() == q.shape(),
               "dequantize destination shape mismatch");
  const auto src = q.data();
  auto dst = out.data();
  const auto& p = q.params();
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = p.dequantize(src[i]);
  }
}

Tensor fake_quantize(const Tensor& t, const QuantParams& params) {
  Tensor out(t.shape());
  const auto src = t.data();
  auto dst = out.data();
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = params.quantize_dequantize(src[i]);
  }
  return out;
}

MinMax tensor_min_max(const Tensor& t) {
  const auto d = t.data();
  if (d.empty()) return {};
  // Eight running lanes in a GCC/Clang vector type: the vectorizer leaves
  // float min/max reductions scalar, since their order decides which of
  // +0 and -0 wins.
  using Lanes = float __attribute__((vector_size(32)));
  constexpr std::size_t kLanes = sizeof(Lanes) / sizeof(float);
  Lanes lo;
  Lanes hi;
  for (std::size_t j = 0; j < kLanes; ++j) lo[j] = hi[j] = d[0];
  std::size_t i = 0;
  for (; i + kLanes <= d.size(); i += kLanes) {
    Lanes v;
    std::memcpy(&v, d.data() + i, sizeof(v));
    lo = v < lo ? v : lo;
    hi = v > hi ? v : hi;
  }
  MinMax r{d[0], d[0]};
  for (std::size_t j = 0; j < kLanes; ++j) {
    r.min_v = lo[j] < r.min_v ? lo[j] : r.min_v;
    r.max_v = hi[j] > r.max_v ? hi[j] : r.max_v;
  }
  for (; i < d.size(); ++i) {
    r.min_v = d[i] < r.min_v ? d[i] : r.min_v;
    r.max_v = d[i] > r.max_v ? d[i] : r.max_v;
  }
  // Lanes may settle on either zero; minmax_element keeps the first
  // minimal and the last maximal element.
  if (r.min_v == 0.0f) r.min_v = *std::find(d.begin(), d.end(), 0.0f);
  if (r.max_v == 0.0f) r.max_v = *std::find(d.rbegin(), d.rend(), 0.0f);
  return r;
}

}  // namespace qmcu::nn
