#include "quant/entropy.h"

#include <algorithm>
#include <cmath>

#include "nn/quant_params.h"
#include "quant/histogram.h"

namespace qmcu::quant {

double shannon_entropy(std::span<const std::int64_t> counts) {
  std::int64_t total = 0;
  for (std::int64_t c : counts) {
    QMCU_REQUIRE(c >= 0, "histogram counts must be non-negative");
    total += c;
  }
  if (total == 0) return 0.0;
  const double inv = 1.0 / static_cast<double>(total);
  double h = 0.0;
  for (std::int64_t c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) * inv;
    h -= p * std::log(p);
  }
  return h;
}

namespace {

// Elements per chunk: the bins or codes of one chunk sit in a stack buffer
// between the vectorized pass that computes them and the counting pass.
constexpr std::size_t kChunk = 512;

// dst[i] = grid.bin_of(src[i]) in one vectorized pass; returns nonzero if
// any src[i] is NaN.
int bin_chunk(const float* __restrict src, std::size_t n,
              const Histogram& grid, std::int32_t* __restrict dst) {
  int nan = 0;
  for (std::size_t i = 0; i < n; ++i) {
    nan |= static_cast<int>(src[i] != src[i]);
    dst[i] = grid.bin_of(src[i]);
  }
  return nan;
}

// Counters for `n` indices, kept in four interleaved copies: consecutive
// elements go to different copies, so a run of equal indices does not
// serialize on one counter's store-to-load round trip. totals() sums them.
class SplitCounts {
 public:
  explicit SplitCounts(std::size_t n) : n_(n), copies_(kCopies * n, 0) {}

  // Counts idx[i] + offset for i in [0, len).
  template <typename Index>
  void add(const Index* idx, std::size_t len, int offset) {
    std::int64_t* c = copies_.data() + offset;
    std::size_t i = 0;
    for (; i + kCopies <= len; i += kCopies) {
      for (std::size_t j = 0; j < kCopies; ++j) ++c[j * n_ + idx[i + j]];
    }
    for (; i < len; ++i) ++c[idx[i]];
  }

  [[nodiscard]] std::vector<std::int64_t> totals() const {
    std::vector<std::int64_t> t(n_, 0);
    for (std::size_t c = 0; c < kCopies; ++c) {
      for (std::size_t b = 0; b < n_; ++b) t[b] += copies_[c * n_ + b];
    }
    return t;
  }

 private:
  static constexpr std::size_t kCopies = 8;
  std::size_t n_;
  std::vector<std::int64_t> copies_;
};

}  // namespace

EntropyProfile entropy_profile(const nn::Tensor& t, std::span<const int> bits,
                               int k) {
  const std::span<const float> d = t.data();
  const auto [lo, hi] = nn::tensor_min_max(t);
  QMCU_REQUIRE(std::isfinite(lo) && std::isfinite(hi),
               "entropy needs finite values: the tensor holds an infinity or "
               "a NaN");
  const float span = hi - lo;
  const Histogram grid(lo, span > 0.0f ? hi : lo + 1.0f, k);
  const auto bins = static_cast<std::size_t>(grid.bins());

  EntropyProfile out;
  {
    SplitCounts counts(bins);
    std::int32_t idx[kChunk];
    int nan = 0;
    for (std::size_t i0 = 0; i0 < d.size(); i0 += kChunk) {
      const std::size_t n = std::min(kChunk, d.size() - i0);
      nan |= bin_chunk(d.data() + i0, n, grid, idx);
      counts.add(idx, n, 0);
    }
    QMCU_REQUIRE(nan == 0,
                 "entropy needs finite values: the tensor holds a NaN");
    out.entropy_float = shannon_entropy(counts.totals());
  }

  out.entropy_at_bits.reserve(bits.size());
  for (const int b : bits) {
    const nn::QuantParams p = nn::choose_quant_params(lo, hi, b);
    SplitCounts level_counts(static_cast<std::size_t>(p.qmax() - p.qmin()) +
                             1);
    std::int8_t codes[kChunk];
    for (std::size_t i0 = 0; i0 < d.size(); i0 += kChunk) {
      const std::size_t n = std::min(kChunk, d.size() - i0);
      nn::quantize_row(d.data() + i0, static_cast<std::int64_t>(n), p, codes);
      level_counts.add(codes, n, -p.qmin());
    }
    const std::vector<std::int64_t> levels = level_counts.totals();
    // A level's values all dequantize to one float, hence one bin.
    std::vector<std::int64_t> counts(bins, 0);
    for (std::int32_t q = p.qmin(); q <= p.qmax(); ++q) {
      counts[static_cast<std::size_t>(grid.bin_of(p.dequantize(q)))] +=
          levels[static_cast<std::size_t>(q - p.qmin())];
    }
    out.entropy_at_bits.push_back(shannon_entropy(counts));
  }
  return out;
}

double activation_entropy(const nn::Tensor& t, int k) {
  return entropy_profile(t, {}, k).entropy_float;
}

double quantized_activation_entropy(const nn::Tensor& t, int bits, int k) {
  const int one[] = {bits};
  return entropy_profile(t, one, k).entropy_at_bits[0];
}

double quantization_mse(const nn::Tensor& t, int bits) {
  const auto [lo, hi] = nn::tensor_min_max(t);
  const nn::QuantParams p = nn::choose_quant_params(lo, hi, bits);
  double mse = 0.0;
  const auto d = t.data();
  if (d.empty()) return 0.0;
  for (float v : d) {
    const double err = static_cast<double>(v) - p.quantize_dequantize(v);
    mse += err * err;
  }
  return mse / static_cast<double>(d.size());
}

double tensor_variance(const nn::Tensor& t) {
  const auto d = t.data();
  if (d.empty()) return 0.0;
  double mean = 0.0;
  for (float v : d) mean += v;
  mean /= static_cast<double>(d.size());
  double var = 0.0;
  for (float v : d) {
    const double dv = static_cast<double>(v) - mean;
    var += dv * dv;
  }
  return var / static_cast<double>(d.size());
}

}  // namespace qmcu::quant
