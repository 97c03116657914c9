// Unit tests for Tensor / QTensor (nn/tensor.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "nn/rng.h"
#include "nn/tensor.h"

namespace qmcu::nn {
namespace {

TEST(TensorShape, ElementsAndBytes) {
  const TensorShape s{4, 5, 3};
  EXPECT_EQ(s.elements(), 60);
  EXPECT_EQ(s.bytes(8), 60);
  EXPECT_EQ(s.bytes(4), 30);
  EXPECT_EQ(s.bytes(2), 15);
}

TEST(TensorShape, SubByteBytesRoundUp) {
  const TensorShape s{1, 1, 3};  // 3 elements
  EXPECT_EQ(s.bytes(4), 2);      // 12 bits -> 2 bytes
  EXPECT_EQ(s.bytes(2), 1);      // 6 bits -> 1 byte
}

TEST(Tensor, IndexingIsRowMajorNhwc) {
  Tensor t(TensorShape{2, 2, 2});
  float v = 0.0f;
  for (int y = 0; y < 2; ++y) {
    for (int x = 0; x < 2; ++x) {
      for (int c = 0; c < 2; ++c) t.at(y, x, c) = v++;
    }
  }
  const auto d = t.data();
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_FLOAT_EQ(d[i], static_cast<float>(i));
  }
}

TEST(Tensor, ConstructionValidatesShapeAndSize) {
  EXPECT_THROW(Tensor(TensorShape{0, 1, 1}), std::invalid_argument);
  EXPECT_THROW(Tensor(TensorShape{2, 2, 1}, std::vector<float>(3)),
               std::invalid_argument);
}

TEST(QTensor, QuantizeDequantizeRoundTrip) {
  Tensor t(TensorShape{1, 1, 4}, {0.0f, 1.0f, -1.0f, 0.5f});
  const QuantParams p = choose_quant_params(-1.0f, 1.0f, 8);
  const QTensor q = quantize(t, p);
  const Tensor back = dequantize(q);
  for (int c = 0; c < 4; ++c) {
    EXPECT_NEAR(back.at(0, 0, c), t.at(0, 0, c), p.scale * 0.5f + 1e-6f);
  }
}

TEST(QTensor, StorageBytesReflectBitPacking) {
  const QuantParams p4 = choose_quant_params(-1.0f, 1.0f, 4);
  const QTensor q(TensorShape{2, 2, 2}, p4);  // 8 elements at 4 bits
  EXPECT_EQ(q.storage_bytes(), 4);
}

TEST(FakeQuantize, IdentityForRepresentableValues) {
  const QuantParams p = choose_quant_params(-2.0f, 2.0f, 8);
  // Values exactly on the grid round-trip exactly.
  Tensor t(TensorShape{1, 1, 2}, {p.dequantize(10), p.dequantize(-7)});
  const Tensor fq = fake_quantize(t, p);
  EXPECT_FLOAT_EQ(fq.at(0, 0, 0), t.at(0, 0, 0));
  EXPECT_FLOAT_EQ(fq.at(0, 0, 1), t.at(0, 0, 1));
}

TEST(FakeQuantize, CoarserBitsMeanLargerError) {
  Tensor t(TensorShape{1, 1, 64});
  for (int c = 0; c < 64; ++c) {
    t.at(0, 0, c) = -2.0f + 4.0f * static_cast<float>(c) / 63.0f;
  }
  double err8 = 0.0;
  double err2 = 0.0;
  const auto [lo, hi] = tensor_min_max(t);
  const Tensor f8 = fake_quantize(t, choose_quant_params(lo, hi, 8));
  const Tensor f2 = fake_quantize(t, choose_quant_params(lo, hi, 2));
  for (int c = 0; c < 64; ++c) {
    err8 += std::abs(f8.at(0, 0, c) - t.at(0, 0, c));
    err2 += std::abs(f2.at(0, 0, c) - t.at(0, 0, c));
  }
  EXPECT_LT(err8, err2);
}

TEST(TensorMinMax, FindsExtremes) {
  Tensor t(TensorShape{1, 2, 2}, {3.0f, -7.0f, 0.0f, 2.0f});
  const auto [lo, hi] = tensor_min_max(t);
  EXPECT_FLOAT_EQ(lo, -7.0f);
  EXPECT_FLOAT_EQ(hi, 3.0f);
}

// The lane-wise pass returns the same bits as std::minmax_element (first
// minimum, last maximum) for every length's lane tail, including which
// zero a bound of 0 carries when both signs occur.
TEST(TensorMinMax, MatchesMinmaxElementBitForBit) {
  Rng rng(95);
  for (int n = 1; n <= 40; ++n) {
    for (int trial = 0; trial < 4; ++trial) {
      Tensor t(TensorShape{1, 1, n});
      // Trial 0 draws both signs; 1 only negatives, so the max is a zero;
      // 2 and 3 only positives, so the min is a zero.
      for (float& v : t.data()) {
        const double u = rng.uniform();
        const double x = trial == 0   ? rng.normal(0.0, 1.0)
                         : trial == 1 ? -rng.uniform(0.1, 2.0)
                                      : rng.uniform(0.1, 2.0);
        v = u < 0.3 ? 0.0f : u < 0.6 ? -0.0f : static_cast<float>(x);
      }
      const auto d = t.data();
      const auto [lo, hi] = std::minmax_element(d.begin(), d.end());
      const MinMax got = tensor_min_max(t);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(got.min_v),
                std::bit_cast<std::uint32_t>(*lo))
          << "n=" << n << " trial=" << trial;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(got.max_v),
                std::bit_cast<std::uint32_t>(*hi))
          << "n=" << n << " trial=" << trial;
    }
  }
}

// quantize_row is the vectorized row routine behind quantize_into and the
// patch engine's input staging: it must equal QuantParams::quantize on
// every float, the awkward ones included.
TEST(QuantizeRow, MatchesScalarQuantizeOnEdgeValues) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<float> values{0.0f,  -0.0f, kInf, -kInf,
                            std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::lowest(),
                            1e30f, -1e30f, 3e9f, -3e9f,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            1e-40f, -1e-40f,
                            std::numeric_limits<float>::min()};
  // Exact ties at every half step the tested scales can produce.
  for (int k = -300; k <= 300; ++k) values.push_back(0.5f * k + 0.25f);
  Rng rng(4);
  for (int i = 0; i < 333; ++i) {
    values.push_back(static_cast<float>(rng.normal(0.0, 40.0)));
  }
  for (const int bits : {2, 4, 8}) {
    for (const float scale : {0.5f, 0.25f, 1.0f, 0.037f}) {
      // Near-ties of a non-dyadic scale and their float neighbours, where
      // multiplying by 1/scale would round differently from the divide.
      std::vector<float> row = values;
      for (int k = -200; k <= 200; ++k) {
        const float tie = (static_cast<float>(k) + 0.5f) * scale;
        row.push_back(tie);
        row.push_back(std::nextafter(tie, kInf));
        row.push_back(std::nextafter(tie, -kInf));
      }
      for (const std::int32_t zp : {-3, 0, 1}) {
        QuantParams p;
        p.scale = scale;
        p.zero_point = zp;
        p.bits = bits;
        std::vector<std::int8_t> got(row.size());
        quantize_row(row.data(), static_cast<std::int64_t>(row.size()), p,
                     got.data());
        for (std::size_t i = 0; i < row.size(); ++i) {
          ASSERT_EQ(static_cast<int>(got[i]), p.quantize(row[i]))
              << "value " << row[i] << " bits " << bits << " scale "
              << scale << " zp " << zp;
        }
      }
    }
  }
}

TEST(QuantizeRow, RejectsNaN) {
  QuantParams p;
  p.scale = 0.1f;
  std::vector<float> row(37, 1.0f);
  row[29] = std::numeric_limits<float>::quiet_NaN();
  std::vector<std::int8_t> out(row.size());
  EXPECT_THROW(quantize_row(row.data(), 37, p, out.data()),
               std::invalid_argument);
  EXPECT_THROW((void)p.quantize(row[29]), std::invalid_argument);
  Tensor t(TensorShape{1, 37, 1}, row);
  EXPECT_THROW((void)quantize(t, p), std::invalid_argument);
}

}  // namespace
}  // namespace qmcu::nn
