// Unit tests for histograms and activation entropy (quant/histogram.h,
// quant/entropy.h) — the accuracy proxy of VDQS (paper Eqs. 3-4).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "models/zoo.h"
#include "nn/executor.h"
#include "nn/rng.h"
#include "quant/entropy.h"
#include "quant/histogram.h"

namespace qmcu::quant {
namespace {

TEST(Histogram, UniformDataFillsBinsEvenly) {
  Histogram h(0.0f, 1.0f, 4);
  for (int i = 0; i < 400; ++i) {
    h.add((static_cast<float>(i) + 0.5f) / 400.0f);
  }
  for (std::int64_t c : h.counts()) EXPECT_EQ(c, 100);
}

TEST(Histogram, OutOfRangeValuesClampIntoEdgeBins) {
  Histogram h(0.0f, 1.0f, 2);
  h.add(-5.0f);
  h.add(99.0f);
  EXPECT_EQ(h.counts()[0], 1);
  EXPECT_EQ(h.counts()[1], 1);
  EXPECT_EQ(h.total(), 2);
}

TEST(Histogram, ProbabilitiesSumToOne) {
  Histogram h(-1.0f, 1.0f, 8);
  nn::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    h.add(static_cast<float>(rng.normal(0.0, 0.3)));
  }
  double sum = 0.0;
  for (double p : h.probabilities()) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

// NaN has no bin (casting it to an integer is undefined); infinities clamp
// into the edge bins like any other out-of-range value.
TEST(Histogram, RejectsNaN) {
  Histogram h(0.0f, 1.0f, 4);
  EXPECT_THROW(h.add(std::numeric_limits<float>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_EQ(h.total(), 0);
  h.add(std::numeric_limits<float>::infinity());
  h.add(-std::numeric_limits<float>::infinity());
  EXPECT_EQ(h.counts()[0], 1);
  EXPECT_EQ(h.counts()[3], 1);
}

TEST(Histogram, RejectsDegenerateConstruction) {
  EXPECT_THROW(Histogram(1.0f, 1.0f, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0f, 1.0f, 0), std::invalid_argument);
}

TEST(ShannonEntropy, DeltaDistributionHasZeroEntropy) {
  const std::vector<std::int64_t> counts{0, 100, 0, 0};
  EXPECT_DOUBLE_EQ(shannon_entropy(counts), 0.0);
}

TEST(ShannonEntropy, UniformDistributionIsLogK) {
  const std::vector<std::int64_t> counts{25, 25, 25, 25};
  EXPECT_NEAR(shannon_entropy(counts), std::log(4.0), 1e-12);
}

TEST(ShannonEntropy, EmptyHistogramIsZero) {
  const std::vector<std::int64_t> counts{0, 0, 0};
  EXPECT_DOUBLE_EQ(shannon_entropy(counts), 0.0);
}

TEST(ShannonEntropy, UniformMaximisesEntropy) {
  const std::vector<std::int64_t> uniform{50, 50, 50, 50};
  const std::vector<std::int64_t> skewed{170, 10, 10, 10};
  EXPECT_GT(shannon_entropy(uniform), shannon_entropy(skewed));
}

nn::Tensor gaussian_tensor(int n, double stddev, std::uint64_t seed) {
  nn::Tensor t(nn::TensorShape{1, 1, n});
  nn::Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    t.at(0, 0, i) = static_cast<float>(rng.normal(0.0, stddev));
  }
  return t;
}

// Property: quantizing to fewer bits can only destroy information —
// H(i, 2) <= H(i, 4) <= H(i, 8) <= H(i, float) (paper's Eq. 5 premise).
TEST(ActivationEntropy, MonotoneInBitwidthOnGaussianData) {
  const nn::Tensor t = gaussian_tensor(4096, 1.0, 99);
  const int k = 256;
  const double h_float = activation_entropy(t, k);
  const double h8 = quantized_activation_entropy(t, 8, k);
  const double h4 = quantized_activation_entropy(t, 4, k);
  const double h2 = quantized_activation_entropy(t, 2, k);
  EXPECT_LE(h2, h4 + 1e-9);
  EXPECT_LE(h4, h8 + 1e-9);
  EXPECT_LE(h8, h_float + 1e-9);
  EXPECT_GT(h_float, 0.0);
}

TEST(ActivationEntropy, QuantizedLevelsBoundEntropy) {
  const nn::Tensor t = gaussian_tensor(8192, 1.0, 17);
  // A b-bit tensor has at most 2^b distinct values -> entropy <= b ln 2.
  EXPECT_LE(quantized_activation_entropy(t, 2, 256), 2.0 * std::log(2.0) + 1e-9);
  EXPECT_LE(quantized_activation_entropy(t, 4, 256), 4.0 * std::log(2.0) + 1e-9);
}

TEST(ActivationEntropy, ConstantTensorHasZeroEntropy) {
  nn::Tensor t(nn::TensorShape{1, 1, 16});
  for (int i = 0; i < 16; ++i) t.at(0, 0, i) = 3.0f;
  EXPECT_DOUBLE_EQ(activation_entropy(t, 64), 0.0);
}

// --- entropy_profile against its definition -------------------------------

// The definition entropy_profile implements: bin the tensor, and bin its
// fake-quantized copy per width, on the tensor's own range.
EntropyProfile oracle_profile(const nn::Tensor& t, std::span<const int> bits,
                              int k) {
  const auto [lo, hi] = nn::tensor_min_max(t);
  const float span = hi - lo;
  const auto entropy_of = [&](std::span<const float> values) {
    Histogram h(lo, span > 0.0f ? hi : lo + 1.0f, k);
    h.add_all(values);
    return shannon_entropy(h.counts());
  };
  EntropyProfile out;
  out.entropy_float = entropy_of(t.data());
  for (const int b : bits) {
    const nn::Tensor fq =
        nn::fake_quantize(t, nn::choose_quant_params(lo, hi, b));
    out.entropy_at_bits.push_back(entropy_of(fq.data()));
  }
  return out;
}

constexpr int kWidths[] = {8, 4, 2};

void expect_profile_exact(const nn::Tensor& t, int k,
                          const std::string& what) {
  const EntropyProfile want = oracle_profile(t, kWidths, k);
  const EntropyProfile got = entropy_profile(t, kWidths, k);
  EXPECT_EQ(got.entropy_float, want.entropy_float) << what << " k=" << k;
  ASSERT_EQ(got.entropy_at_bits.size(), want.entropy_at_bits.size());
  for (std::size_t j = 0; j < want.entropy_at_bits.size(); ++j) {
    EXPECT_EQ(got.entropy_at_bits[j], want.entropy_at_bits[j])
        << what << " k=" << k << " bits=" << kWidths[j];
  }
}

TEST(EntropyProfile, MatchesFakeQuantizeOracleOnMobileNetV2) {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.35f;
  cfg.resolution = 64;
  cfg.num_classes = 10;
  const nn::Graph g = models::make_mobilenet_v2(cfg);
  nn::Tensor in(g.shape(0));
  nn::Rng rng(61);
  for (float& v : in.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  const std::vector<nn::Tensor> fms = nn::Executor(g).run_all(in);
  for (const int k : {16, 256}) {
    for (std::size_t id = 0; id < fms.size(); ++id) {
      expect_profile_exact(fms[id], k, "layer " + std::to_string(id));
    }
  }
}

TEST(EntropyProfile, MatchesOracleOnEdgeCaseTensors) {
  const auto tensor = [](std::vector<float> v) {
    const int n = static_cast<int>(v.size());
    return nn::Tensor(nn::TensorShape{1, 1, n}, std::move(v));
  };
  // Values exactly on the k = 16 bin edges of [-2, 2], and on the edges
  // as computed in float from a range that is not a power of two.
  std::vector<float> edges;
  for (int i = 0; i <= 16; ++i) edges.push_back(-2.0f + 0.25f * i);
  std::vector<float> odd_edges;
  for (int i = 0; i <= 16; ++i) odd_edges.push_back(-1.3f + 0.3f * i);
  std::vector<float> negative;
  nn::Rng rng(62);
  for (int i = 0; i < 1000; ++i) {
    negative.push_back(-0.01f - static_cast<float>(rng.uniform(0.0, 3.0)));
  }
  const std::pair<const char*, nn::Tensor> cases[] = {
      {"constant", tensor(std::vector<float>(37, 0.75f))},
      {"constant zero", tensor(std::vector<float>(9, 0.0f))},
      {"single element", tensor({-1.5f})},
      {"all negative", tensor(negative)},
      {"bin edges", tensor(edges)},
      {"float bin edges", tensor(odd_edges)},
  };
  for (const auto& [what, t] : cases) {
    for (const int k : {16, 256}) expect_profile_exact(t, k, what);
  }
}

TEST(EntropyProfile, RejectsNonFiniteTensor) {
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    nn::Tensor t = gaussian_tensor(64, 1.0, 5);
    t.at(0, 0, 33) = bad;
    EXPECT_THROW((void)entropy_profile(t, kWidths, 16), std::invalid_argument)
        << bad;
    EXPECT_THROW((void)activation_entropy(t, 16), std::invalid_argument)
        << bad;
  }
}

TEST(QuantizationMse, ShrinksWithMoreBits) {
  const nn::Tensor t = gaussian_tensor(2048, 1.0, 3);
  const double m2 = quantization_mse(t, 2);
  const double m4 = quantization_mse(t, 4);
  const double m8 = quantization_mse(t, 8);
  EXPECT_GT(m2, m4);
  EXPECT_GT(m4, m8);
  EXPECT_GE(m8, 0.0);
}

TEST(TensorVariance, MatchesClosedForm) {
  nn::Tensor t(nn::TensorShape{1, 1, 4}, {1.0f, 3.0f, 5.0f, 7.0f});
  EXPECT_NEAR(tensor_variance(t), 5.0, 1e-9);  // population variance
}

TEST(TensorVariance, ZeroForConstantTensor) {
  nn::Tensor t(nn::TensorShape{1, 1, 8});
  for (int i = 0; i < 8; ++i) t.at(0, 0, i) = -2.5f;
  EXPECT_DOUBLE_EQ(tensor_variance(t), 0.0);
}

}  // namespace
}  // namespace qmcu::quant
