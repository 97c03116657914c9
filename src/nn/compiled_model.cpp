#include "nn/compiled_model.h"

#include <cstring>

#include "nn/executor.h"

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

Tensor CompiledModel::run(const Tensor& input,
                          std::span<std::uint8_t> arena) const {
  const Graph& g = *graph_;
  QMCU_REQUIRE(input.shape() == g.shape(g.inputs().front()),
               "input shape does not match graph input");
  check_arena(arena, plan_.peak_bytes, alignof(float));
  // Compiled runs are per-run thread-affine: a serving lane may run this
  // model from a different thread than the one that compiled it.
  backend_.rebind_thread();

  memo_.resize(static_cast<std::size_t>(g.size()));
  measured_ = 0;
  for (int id = 0; id < g.size(); ++id) {
    const ArenaSlot& slot = plan_.slots[static_cast<std::size_t>(id)];
    const std::int64_t n = g.shape(id).elements();
    auto* base = reinterpret_cast<float*>(arena.data() + slot.offset);
    memo_[static_cast<std::size_t>(id)] =
        Tensor(g.shape(id), std::span<float>(base, static_cast<std::size_t>(n)));
    measured_ = std::max(
        measured_,
        slot.offset + n * static_cast<std::int64_t>(sizeof(float)));
    Tensor& out = memo_[static_cast<std::size_t>(id)];
    if (g.layer(id).kind == OpKind::Input) {
      std::memcpy(out.data().data(), input.data().data(),
                  static_cast<std::size_t>(n) * sizeof(float));
    } else {
      run_layer_f32_into(g, id, memo_, backend_, out);
    }
  }
  // Copying the borrowed view materialises an owning tensor for the caller.
  return memo_[static_cast<std::size_t>(g.output())];
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

QTensor CompiledQuantModel::run(const Tensor& input,
                                std::span<std::uint8_t> arena) const {
  const Graph& g = *graph_;
  QMCU_REQUIRE(input.shape() == g.shape(g.inputs().front()),
               "input shape does not match graph input");
  check_arena(arena, plan_.peak_bytes, 1);
  // Per-run thread affinity (see CompiledModel::run).
  backend_.rebind_thread();

  memo_.resize(static_cast<std::size_t>(g.size()));
  measured_ = 0;
  for (int id = 0; id < g.size(); ++id) {
    const ArenaSlot& slot = plan_.slots[static_cast<std::size_t>(id)];
    const std::int64_t n = g.shape(id).elements();
    auto* base = reinterpret_cast<std::int8_t*>(arena.data() + slot.offset);
    memo_[static_cast<std::size_t>(id)] = QTensor(
        g.shape(id), effective_[static_cast<std::size_t>(id)],
        std::span<std::int8_t>(base, static_cast<std::size_t>(n)));
    measured_ = std::max(measured_, slot.offset + n);
    QTensor& out = memo_[static_cast<std::size_t>(id)];
    if (g.layer(id).kind == OpKind::Input) {
      quantize_into(input, out);
    } else {
      run_layer_q_into(g, id, memo_, *params_, backend_, out);
    }
  }
  return memo_[static_cast<std::size_t>(g.output())];
}

}  // namespace qmcu::nn
