#include "nn/executor.h"

#include "nn/ops/float_kernels.h"

namespace qmcu::nn {

void run_layer_f32_into(const Graph& g, int id, std::span<const Tensor> memo,
                        ops::KernelBackend& backend, Tensor& out) {
  const Layer& l = g.layer(id);
  QMCU_REQUIRE(l.kind != OpKind::Input, "input layers are seeded, not run");
  const auto in0 = [&]() -> const Tensor& {
    return memo[static_cast<std::size_t>(l.inputs[0])];
  };
  switch (l.kind) {
    case OpKind::Conv2D:
      backend.conv2d_f32_into(in0(), l, g.weights(id), g.bias(id), out);
      return;
    case OpKind::DepthwiseConv2D:
      backend.depthwise_conv2d_f32_into(in0(), l, g.weights(id), g.bias(id),
                                        out);
      return;
    case OpKind::FullyConnected:
      backend.fully_connected_f32_into(in0(), l, g.weights(id), g.bias(id),
                                       out);
      return;
    case OpKind::MaxPool:
      ops::max_pool_f32_into(in0(), l, out);
      return;
    case OpKind::AvgPool:
      ops::avg_pool_f32_into(in0(), l, out);
      return;
    case OpKind::GlobalAvgPool:
      ops::global_avg_pool_f32_into(in0(), out);
      return;
    case OpKind::Add:
      ops::add_f32_into(memo[static_cast<std::size_t>(l.inputs[0])],
                        memo[static_cast<std::size_t>(l.inputs[1])], l.act,
                        out);
      return;
    case OpKind::Concat: {
      std::vector<const Tensor*> ins;
      ins.reserve(l.inputs.size());
      for (int in : l.inputs) {
        ins.push_back(&memo[static_cast<std::size_t>(in)]);
      }
      ops::concat_f32_into(ins, out);
      return;
    }
    case OpKind::Softmax:
      ops::softmax_f32_into(in0(), out);
      return;
    case OpKind::Input:
      break;
  }
  QMCU_ENSURE(false, "unhandled op kind");
}

Tensor run_layer_f32(const Graph& g, int id, std::span<const Tensor> memo,
                     ops::KernelBackend& backend) {
  Tensor out(g.shape(id));
  run_layer_f32_into(g, id, memo, backend, out);
  return out;
}

std::vector<Tensor> Executor::run_all(const Tensor& input) const {
  const Graph& g = *graph_;
  QMCU_REQUIRE(g.inputs().size() == 1, "executor expects one input layer");
  QMCU_REQUIRE(input.shape() == g.shape(g.inputs().front()),
               "input shape does not match graph input");

  std::vector<Tensor> memo(static_cast<std::size_t>(g.size()));
  for (int id = 0; id < g.size(); ++id) {
    if (g.layer(id).kind == OpKind::Input) {
      memo[static_cast<std::size_t>(id)] = input;
    } else {
      memo[static_cast<std::size_t>(id)] =
          run_layer_f32(g, id, memo, compiled_.backend());
    }
  }
  return memo;
}

Tensor Executor::run(const Tensor& input) const {
  return compiled_.run(input);
}

std::vector<Tensor> Executor::run_from(std::vector<Tensor> memo,
                                       int changed_layer) const {
  const Graph& g = *graph_;
  QMCU_REQUIRE(static_cast<int>(memo.size()) == g.size(),
               "memo must cover every layer");
  QMCU_REQUIRE(changed_layer >= 0 && changed_layer < g.size(),
               "changed layer out of range");
  std::vector<bool> dirty(static_cast<std::size_t>(g.size()), false);
  dirty[static_cast<std::size_t>(changed_layer)] = true;
  for (int id = changed_layer + 1; id < g.size(); ++id) {
    bool needs = false;
    for (int in : g.layer(id).inputs) {
      if (dirty[static_cast<std::size_t>(in)]) {
        needs = true;
        break;
      }
    }
    if (needs) {
      memo[static_cast<std::size_t>(id)] =
          run_layer_f32(g, id, memo, compiled_.backend());
      dirty[static_cast<std::size_t>(id)] = true;
    }
  }
  return memo;
}

QuantizedParameters QuantizedParameters::build(
    const Graph& g, const ActivationQuantConfig& cfg) {
  QMCU_REQUIRE(static_cast<int>(cfg.params.size()) == g.size(),
               "quant config must cover every layer");
  // The bias scale must match the *actual* scale of the tensor the kernel
  // reads. Pools never requantize (TFLite contract), so a pool's output
  // carries its producer's params, not cfg.params[pool] — resolve the
  // chain before scaling biases.
  const std::vector<QuantParams> effective = effective_output_params(g, cfg);

  QuantizedParameters out;
  out.weights.resize(static_cast<std::size_t>(g.size()));
  out.bias.resize(static_cast<std::size_t>(g.size()));
  out.weight_store.resize(static_cast<std::size_t>(g.size()));
  out.bias_store.resize(static_cast<std::size_t>(g.size()));
  for (int id = 0; id < g.size(); ++id) {
    const Layer& l = g.layer(id);
    if (!is_mac_op(l.kind)) continue;
    QMCU_REQUIRE(g.has_parameters(id),
                 "MAC layer missing parameters: " + l.name);
    const auto i = static_cast<std::size_t>(id);
    out.weight_store[i] = ops::quantize_weights(g.weights(id));
    out.weights[i] = {out.weight_store[i].data, out.weight_store[i].params};
    if (!g.bias(id).empty()) {
      const float in_scale =
          effective[static_cast<std::size_t>(l.inputs[0])].scale;
      out.bias_store[i] = ops::quantize_bias(
          g.bias(id), in_scale, out.weight_store[i].params.scale);
      out.bias[i] = out.bias_store[i];
    }
  }
  return out;
}

std::shared_ptr<const QuantizedParameters> QuantizedParameters::build_shared(
    const Graph& g, const ActivationQuantConfig& cfg) {
  return std::make_shared<const QuantizedParameters>(build(g, cfg));
}

void run_layer_q_into(const Graph& g, int id, std::span<const QTensor> memo,
                      const QuantizedParameters& params,
                      ops::KernelBackend& backend, QTensor& out) {
  const Layer& l = g.layer(id);
  QMCU_REQUIRE(l.kind != OpKind::Input, "input layers are seeded, not run");
  const auto& in0 = memo[static_cast<std::size_t>(l.inputs[0])];
  switch (l.kind) {
    case OpKind::Conv2D:
      backend.conv2d_into(in0, l,
                          params.weights[static_cast<std::size_t>(id)].data,
                          params.weights[static_cast<std::size_t>(id)].params,
                          params.bias[static_cast<std::size_t>(id)], out);
      return;
    case OpKind::DepthwiseConv2D:
      backend.depthwise_conv2d_into(
          in0, l, params.weights[static_cast<std::size_t>(id)].data,
          params.weights[static_cast<std::size_t>(id)].params,
          params.bias[static_cast<std::size_t>(id)], out);
      return;
    case OpKind::FullyConnected:
      backend.fully_connected_into(
          in0, l, params.weights[static_cast<std::size_t>(id)].data,
          params.weights[static_cast<std::size_t>(id)].params,
          params.bias[static_cast<std::size_t>(id)], out);
      return;
    case OpKind::MaxPool:
      backend.max_pool_into(in0, l, out);
      return;
    case OpKind::AvgPool:
      backend.avg_pool_into(in0, l, out);
      return;
    case OpKind::GlobalAvgPool:
      backend.global_avg_pool_into(in0, out);
      return;
    case OpKind::Add:
      backend.add_into(in0, memo[static_cast<std::size_t>(l.inputs[1])],
                       l.act, out);
      return;
    case OpKind::Concat: {
      std::vector<const QTensor*> ins;
      ins.reserve(l.inputs.size());
      for (int in : l.inputs) {
        ins.push_back(&memo[static_cast<std::size_t>(in)]);
      }
      backend.concat_into(ins, out);
      return;
    }
    case OpKind::Softmax:
      backend.softmax_into(in0, out);
      return;
    case OpKind::Input:
      break;
  }
  QMCU_ENSURE(false, "unhandled op kind");
}

QTensor run_layer_q(const Graph& g, int id, std::span<const QTensor> memo,
                    const QuantizedParameters& params,
                    const QuantParams& out_p, ops::KernelBackend& backend) {
  const Layer& l = g.layer(id);
  // Pools never requantize: their output carries the producer's params
  // regardless of the nominal out_p (TFLite contract).
  const QuantParams& p =
      is_pool_op(l.kind)
          ? memo[static_cast<std::size_t>(l.inputs[0])].params()
          : out_p;
  QTensor out(g.shape(id), p);
  run_layer_q_into(g, id, memo, params, backend, out);
  return out;
}

QuantExecutor::QuantExecutor(const Graph& g, ActivationQuantConfig cfg,
                             ops::KernelTier tier,
                             std::shared_ptr<const QuantizedParameters> params)
    : graph_(&g), compiled_(g, std::move(cfg), tier, std::move(params)) {}

std::vector<QTensor> QuantExecutor::run_all(const Tensor& input) const {
  const Graph& g = *graph_;
  QMCU_REQUIRE(g.inputs().size() == 1, "executor expects one input layer");
  QMCU_REQUIRE(input.shape() == g.shape(g.inputs().front()),
               "input shape does not match graph input");

  const ActivationQuantConfig& cfg = compiled_.config();
  std::vector<QTensor> memo(static_cast<std::size_t>(g.size()));
  for (int id = 0; id < g.size(); ++id) {
    if (g.layer(id).kind == OpKind::Input) {
      memo[static_cast<std::size_t>(id)] =
          quantize(input, cfg.params[static_cast<std::size_t>(id)]);
    } else {
      memo[static_cast<std::size_t>(id)] = run_layer_q(
          g, id, memo, *compiled_.shared_parameters(),
          cfg.params[static_cast<std::size_t>(id)], compiled_.backend());
    }
  }
  return memo;
}

QTensor QuantExecutor::run(const Tensor& input) const {
  return compiled_.run(input);
}

}  // namespace qmcu::nn
