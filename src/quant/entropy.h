// entropy.h — activation-value entropy, the accuracy proxy of VDQS.
//
// The paper (Eqs. 3–5) estimates the entropy H(i, b) of feature map i after
// b-bit quantization from a k-bin empirical histogram, and uses the entropy
// *reduction* relative to the unquantized feature map as the accuracy term
// Ω(i, b) of the quantization score. Entropy here is Shannon entropy in
// nats; only ratios of entropies enter the score, so the base cancels.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/tensor.h"

namespace qmcu::quant {

// Shannon entropy (nats) of a discrete distribution given as counts.
double shannon_entropy(std::span<const std::int64_t> counts);

// H(float) and H(b) of one feature map.
struct EntropyProfile {
  double entropy_float = 0.0;
  std::vector<double> entropy_at_bits;  // aligned with the `bits` argument
};

// Entropy of `t`'s activation distribution, k-bin empirical estimate over
// the tensor's own [min, max] range (a constant tensor gets the token range
// [min, min + 1], so all its mass lands in one bin), and, for every b in
// `bits`, the entropy after simulated b-bit affine quantization
// (quantize-dequantize with choose_quant_params over that range), binned on
// the same grid so H(i, b) <= H(i, float) holds structurally: quantization
// can only merge bins, never split them.
//
// One min/max pass, one pass for the float histogram, and one pass per
// width that quantizes the tensor a chunk at a time and counts levels; each
// level's bin comes from its dequantized value, so no fake-quantized tensor
// is built. Bin counts equal binning fake_quantize(t, p) element by
// element. Throws std::invalid_argument if `t` holds a NaN or an infinity
// (a non-finite range has no grid).
EntropyProfile entropy_profile(const nn::Tensor& t, std::span<const int> bits,
                               int k);

// entropy_profile(t, {}, k).entropy_float.
double activation_entropy(const nn::Tensor& t, int k);

// entropy_profile(t, {bits}, k).entropy_at_bits[0].
double quantized_activation_entropy(const nn::Tensor& t, int bits, int k);

// Mean squared quantization error of `bits`-bit affine quantization of `t`.
double quantization_mse(const nn::Tensor& t, int bits);

// Population variance of the tensor values (0 for constant tensors).
double tensor_variance(const nn::Tensor& t);

}  // namespace qmcu::quant
