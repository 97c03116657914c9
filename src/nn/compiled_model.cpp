#include "nn/compiled_model.h"

#include <algorithm>

#include "nn/ops/float_kernels.h"

namespace qmcu::nn {

// Layer-based arena requests: layer i's (unpacked, host-execution) feature
// map is live from its producing step through its last consumer.
ArenaPlan plan_execution_arena(const Graph& g, std::int64_t elem_bytes) {
  std::vector<ArenaRequest> requests(static_cast<std::size_t>(g.size()));
  for (int i = 0; i < g.size(); ++i) {
    requests[static_cast<std::size_t>(i)] = {
        g.shape(i).elements() * elem_bytes, i, last_use_step(g, i)};
  }
  return ArenaPlanner().plan(requests);
}

namespace {

// Lays out every MAC layer's weights in `backend` (see
// KernelBackend::prepack). Gated on the quantized params, not the graph:
// the artifact path loads a topology-only graph, but its params views still
// identify every MAC layer.
void prepack(const Graph& g, const QuantizedParameters& params,
             ops::KernelBackend& backend) {
  for (int id = 0; id < g.size(); ++id) {
    backend.prepack(g.layer(id),
                    params.weights[static_cast<std::size_t>(id)].data);
  }
}

}  // namespace

void PrecompiledBundle::apply(ops::KernelBackend& backend) const {
  for (const PanelEntry& p : panels) {
    backend.adopt_panel(p.key, p.bt, p.wsum);
  }
  for (const OffsetEntry& o : offsets) {
    backend.register_offset_row(o.key, o.a_zp, o.bias, o.offset);
  }
}

void check_arena(std::span<const std::uint8_t> arena, std::int64_t need,
                 std::size_t alignment) {
  QMCU_REQUIRE(static_cast<std::int64_t>(arena.size()) >= need,
               "arena smaller than the planned peak");
  QMCU_REQUIRE(reinterpret_cast<std::uintptr_t>(arena.data()) % alignment == 0,
               "arena base pointer is insufficiently aligned");
}

std::vector<QuantParams> effective_output_params(
    const Graph& g, const ActivationQuantConfig& cfg) {
  QMCU_REQUIRE(static_cast<int>(cfg.params.size()) == g.size(),
               "quant config must cover every layer");
  std::vector<QuantParams> effective;
  effective.reserve(cfg.params.size());
  for (int id = 0; id < g.size(); ++id) {
    const Layer& l = g.layer(id);
    effective.push_back(
        is_pool_op(l.kind)
            ? effective[static_cast<std::size_t>(l.inputs[0])]
            : cfg.params[static_cast<std::size_t>(id)]);
  }
  return effective;
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

// --- float -----------------------------------------------------------------

CompiledModel::CompiledModel(const Graph& g, ops::KernelTier tier)
    : graph_(&g),
      plan_(plan_execution_arena(g, static_cast<std::int64_t>(sizeof(float)))),
      backend_(tier) {
  QMCU_REQUIRE(g.inputs().size() == 1, "compiled model expects one input");
}

CompiledModel::CompiledModel(const Graph& g, ArenaPlan plan,
                             ops::KernelTier tier)
    : graph_(&g), plan_(std::move(plan)), backend_(tier) {
  QMCU_REQUIRE(g.inputs().size() == 1, "compiled model expects one input");
  QMCU_REQUIRE(static_cast<int>(plan_.slots.size()) == g.size(),
               "arena plan does not cover every layer");
}

Tensor CompiledModel::run(const Tensor& input) const {
  if (arena_source_ != nullptr) {
    // Leased for exactly this run; the returned tensor deep-copies out of
    // the arena before the lease releases the block.
    const ArenaSlab::Lease lease = arena_source_->acquire(plan_.peak_bytes);
    return run(input, lease.bytes());
  }
  if (static_cast<std::int64_t>(arena_.size()) < plan_.peak_bytes) {
    arena_.resize(static_cast<std::size_t>(plan_.peak_bytes));
  }
  return run(input, arena_);
}

template <class Bind>
void CompiledModel::run_layers(const Tensor& input, std::vector<Tensor>& memo,
                               Bind bind) const {
  const Graph& g = *graph_;
  QMCU_REQUIRE(input.shape() == g.shape(g.inputs().front()),
               "input shape does not match graph input");
  // Runs are per-run thread-affine: a serving lane may run this model from
  // a different thread than the one that compiled it.
  backend_.rebind_thread();
  memo.resize(static_cast<std::size_t>(g.size()));
  for (int id = 0; id < g.size(); ++id) {
    Tensor& out = memo[static_cast<std::size_t>(id)] = bind(id);
    if (g.layer(id).kind == OpKind::Input) {
      std::copy(input.data().begin(), input.data().end(), out.data().begin());
    } else {
      run_layer_f32_into(g, id, memo, backend_, out);
    }
  }
}

Tensor CompiledModel::run(const Tensor& input,
                          std::span<std::uint8_t> arena) const {
  const Graph& g = *graph_;
  check_arena(arena, plan_.peak_bytes, alignof(float));
  measured_ = 0;
  run_layers(input, memo_, [&](int id) {
    const std::int64_t offset =
        plan_.slots[static_cast<std::size_t>(id)].offset;
    const std::int64_t n = g.shape(id).elements();
    measured_ = std::max(
        measured_, offset + n * static_cast<std::int64_t>(sizeof(float)));
    return Tensor(g.shape(id),
                  std::span<float>(
                      reinterpret_cast<float*>(arena.data() + offset),
                      static_cast<std::size_t>(n)));
  });
  // Copying the borrowed view materialises an owning tensor for the caller.
  return memo_[static_cast<std::size_t>(g.output())];
}

std::vector<Tensor> CompiledModel::run_all(const Tensor& input) const {
  std::vector<Tensor> memo;
  run_layers(input, memo, [&](int id) { return Tensor(graph_->shape(id)); });
  return memo;
}

std::vector<Tensor> CompiledModel::run_from(std::vector<Tensor> memo,
                                            int changed_layer) const {
  const Graph& g = *graph_;
  QMCU_REQUIRE(static_cast<int>(memo.size()) == g.size(),
               "memo must cover every layer");
  QMCU_REQUIRE(changed_layer >= 0 && changed_layer < g.size(),
               "changed layer out of range");
  backend_.rebind_thread();
  std::vector<bool> dirty(static_cast<std::size_t>(g.size()), false);
  dirty[static_cast<std::size_t>(changed_layer)] = true;
  for (int id = changed_layer + 1; id < g.size(); ++id) {
    const auto& inputs = g.layer(id).inputs;
    if (std::none_of(inputs.begin(), inputs.end(), [&](int in) {
          return dirty[static_cast<std::size_t>(in)];
        })) {
      continue;
    }
    Tensor& out = memo[static_cast<std::size_t>(id)] = Tensor(g.shape(id));
    run_layer_f32_into(g, id, memo, backend_, out);
    dirty[static_cast<std::size_t>(id)] = true;
  }
  return memo;
}

// --- quantized -------------------------------------------------------------

CompiledQuantModel::CompiledQuantModel(
    const Graph& g, ActivationQuantConfig cfg, ops::KernelTier tier,
    std::shared_ptr<const QuantizedParameters> params)
    : graph_(&g),
      cfg_(std::move(cfg)),
      effective_(effective_output_params(g, cfg_)),
      params_(params ? std::move(params)
                     : QuantizedParameters::build_shared(g, cfg_)),
      plan_(plan_execution_arena(g, 1)),
      backend_(tier) {
  QMCU_REQUIRE(g.inputs().size() == 1, "compiled model expects one input");
  prepack(g, *params_, backend_);
}

CompiledQuantModel::CompiledQuantModel(
    const Graph& g, ActivationQuantConfig cfg,
    std::shared_ptr<const QuantizedParameters> params, ArenaPlan plan,
    std::shared_ptr<const PrecompiledBundle> bundle, ops::KernelTier tier)
    : graph_(&g),
      cfg_(std::move(cfg)),
      effective_(effective_output_params(g, cfg_)),
      params_(std::move(params)),
      bundle_(std::move(bundle)),
      plan_(std::move(plan)),
      backend_(tier) {
  QMCU_REQUIRE(g.inputs().size() == 1, "compiled model expects one input");
  QMCU_REQUIRE(params_ != nullptr, "artifact path requires prebuilt params");
  QMCU_REQUIRE(static_cast<int>(plan_.slots.size()) == g.size(),
               "arena plan does not cover every layer");
  if (bundle_ != nullptr) bundle_->apply(backend_);
  // With an adopted bundle every panel the model needs is already resident;
  // this only builds panels the artifact did not bake.
  prepack(g, *params_, backend_);
}

QTensor CompiledQuantModel::run(const Tensor& input) const {
  if (arena_source_ != nullptr) {
    const ArenaSlab::Lease lease = arena_source_->acquire(plan_.peak_bytes);
    return run(input, lease.bytes());
  }
  if (static_cast<std::int64_t>(arena_.size()) < plan_.peak_bytes) {
    arena_.resize(static_cast<std::size_t>(plan_.peak_bytes));
  }
  return run(input, arena_);
}

template <class Bind>
void CompiledQuantModel::run_layers(const Tensor& input,
                                    std::vector<QTensor>& memo,
                                    Bind bind) const {
  const Graph& g = *graph_;
  QMCU_REQUIRE(input.shape() == g.shape(g.inputs().front()),
               "input shape does not match graph input");
  // Per-run thread affinity (see CompiledModel::run_layers).
  backend_.rebind_thread();
  memo.resize(static_cast<std::size_t>(g.size()));
  for (int id = 0; id < g.size(); ++id) {
    QTensor& out = memo[static_cast<std::size_t>(id)] = bind(id);
    if (g.layer(id).kind == OpKind::Input) {
      quantize_into(input, out);
    } else {
      run_layer_q_into(g, id, memo, *params_, backend_, out);
    }
  }
}

QTensor CompiledQuantModel::run(const Tensor& input,
                                std::span<std::uint8_t> arena) const {
  const Graph& g = *graph_;
  check_arena(arena, plan_.peak_bytes, 1);
  measured_ = 0;
  run_layers(input, memo_, [&](int id) {
    const std::int64_t offset =
        plan_.slots[static_cast<std::size_t>(id)].offset;
    const std::int64_t n = g.shape(id).elements();
    measured_ = std::max(measured_, offset + n);
    return QTensor(g.shape(id), effective_[static_cast<std::size_t>(id)],
                   std::span<std::int8_t>(
                       reinterpret_cast<std::int8_t*>(arena.data() + offset),
                       static_cast<std::size_t>(n)));
  });
  return memo_[static_cast<std::size_t>(g.output())];
}

std::vector<QTensor> CompiledQuantModel::run_all(const Tensor& input) const {
  std::vector<QTensor> memo;
  run_layers(input, memo, [&](int id) {
    return QTensor(graph_->shape(id),
                   effective_[static_cast<std::size_t>(id)]);
  });
  return memo;
}

}  // namespace qmcu::nn
