#include "quant/fake_quant.h"

#include "nn/compiled_model.h"

namespace qmcu::quant {

nn::Tensor run_fake_quantized(const nn::Graph& g,
                              std::span<const LayerRange> ranges,
                              std::span<const int> bits,
                              const nn::Tensor& input,
                              nn::ops::KernelBackend& backend) {
  QMCU_REQUIRE(static_cast<int>(ranges.size()) == g.size(),
               "ranges must cover every layer");
  QMCU_REQUIRE(static_cast<int>(bits.size()) == g.size(),
               "bits must cover every layer");

  std::vector<nn::Tensor> memo(static_cast<std::size_t>(g.size()));
  for (int id = 0; id < g.size(); ++id) {
    const bool seeded = g.layer(id).kind == nn::OpKind::Input;
    nn::Tensor out = seeded ? input : nn::Tensor(g.shape(id));
    if (!seeded) nn::run_layer_f32_into(g, id, memo, backend, out);
    const nn::QuantParams qp = nn::choose_quant_params(
        ranges[static_cast<std::size_t>(id)].min_v,
        ranges[static_cast<std::size_t>(id)].max_v,
        bits[static_cast<std::size_t>(id)]);
    memo[static_cast<std::size_t>(id)] = nn::fake_quantize(out, qp);
  }
  return std::move(memo[static_cast<std::size_t>(g.output())]);
}

double output_mse(const nn::Tensor& a, const nn::Tensor& b) {
  QMCU_REQUIRE(a.shape() == b.shape(), "output shapes must match");
  const auto da = a.data();
  const auto db = b.data();
  double mse = 0.0;
  for (std::size_t i = 0; i < da.size(); ++i) {
    const double e = static_cast<double>(da[i]) - db[i];
    mse += e * e;
  }
  return da.empty() ? 0.0 : mse / static_cast<double>(da.size());
}

}  // namespace qmcu::quant
