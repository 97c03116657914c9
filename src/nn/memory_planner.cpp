#include "nn/memory_planner.h"

#include <algorithm>
#include <numeric>

#include "nn/ops/im2col.h"

namespace qmcu::nn {

int last_use_step(const Graph& g, int id) {
  int last = id;
  for (int c : g.consumers(id)) last = std::max(last, c);
  return last;
}

std::int64_t fast_scratch_bytes(const Graph& g, int id) {
  const Layer& l = g.layer(id);
  switch (l.kind) {
    case OpKind::Conv2D: {
      // Mirrors KernelBackend::conv2d in uncached-panel mode: k-major
      // panel (n*k i8) + column sums (n i32) + per-column offsets (n i32)
      // + one output row of im2col strip (out_w * k i8) + GEMM accumulator
      // tile (4n i32). Sub-byte inputs unpack into the same int8 strip, so
      // the input bitwidth does not change the price.
      const TensorShape& is = g.shape(l.inputs[0]);
      const std::int64_t k = ops::im2col_row_elements(is, l);
      const std::int64_t n = l.out_channels;
      const std::int64_t out_w = g.shape(id).w;
      return n * k + out_w * k + (n + n + 4 * n) * 4;
    }
    case OpKind::FullyConnected: {
      // The m == 1 panel GEMM microkernel: in uncached-panel mode a k-major
      // panel (n*k i8) + column sums (n i32), plus per-column offsets
      // (n i32) + one accumulator row (n i32).
      const std::int64_t k = g.shape(l.inputs[0]).elements();
      const std::int64_t n = l.out_channels;
      return n * k + (n + n + n) * 4;
    }
    case OpKind::DepthwiseConv2D:
      // Per-channel int32 accumulators.
      return static_cast<std::int64_t>(g.shape(l.inputs[0]).c) * 4;
    case OpKind::GlobalAvgPool:
      // Per-channel int32 sums.
      return static_cast<std::int64_t>(g.shape(l.inputs[0]).c) * 4;
    case OpKind::Softmax:
      // Float detour: dequantized logits + softmax result.
      return 2 * g.shape(id).elements() * 4;
    default:
      return 0;
  }
}

std::int64_t fast_panel_bytes(const Graph& g, int id) {
  const Layer& l = g.layer(id);
  std::int64_t k = 0;
  if (l.kind == OpKind::FullyConnected) {
    k = g.shape(l.inputs[0]).elements();
  } else if (l.kind == OpKind::Conv2D) {
    k = ops::im2col_row_elements(g.shape(l.inputs[0]), l);
  } else {
    return 0;
  }
  return l.out_channels * k + l.out_channels * 4;  // bt panel + wsum
}

MemoryPlan plan_layer_based(const Graph& g, std::span<const int> act_bits) {
  QMCU_REQUIRE(static_cast<int>(act_bits.size()) == g.size(),
               "act_bits must cover every layer");
  std::vector<int> last_use(static_cast<std::size_t>(g.size()));
  for (int i = 0; i < g.size(); ++i) last_use[static_cast<std::size_t>(i)] =
      last_use_step(g, i);

  MemoryPlan plan;
  plan.step_bytes.assign(static_cast<std::size_t>(g.size()), 0);
  plan.step_scratch_bytes.assign(static_cast<std::size_t>(g.size()), 0);
  for (int step = 0; step < g.size(); ++step) {
    std::int64_t live = 0;
    for (int i = 0; i <= step; ++i) {
      if (last_use[static_cast<std::size_t>(i)] >= step) {
        live += g.shape(i).bytes(act_bits[static_cast<std::size_t>(i)]);
      }
    }
    plan.step_bytes[static_cast<std::size_t>(step)] = live;
    if (live > plan.peak_bytes) {
      plan.peak_bytes = live;
      plan.peak_step = step;
    }
    const std::int64_t scratch = fast_scratch_bytes(g, step);
    plan.step_scratch_bytes[static_cast<std::size_t>(step)] = scratch;
    plan.scratch_peak_bytes = std::max(plan.scratch_peak_bytes, scratch);
    if (live + scratch > plan.total_peak_bytes) {
      plan.total_peak_bytes = live + scratch;
      plan.total_peak_step = step;
    }
    plan.panel_bytes += fast_panel_bytes(g, step);
  }
  return plan;
}

std::vector<int> uniform_bits(const Graph& g, int bits) {
  return std::vector<int>(static_cast<std::size_t>(g.size()), bits);
}

std::int64_t model_flash_bytes(const Graph& g, int weight_bits) {
  std::int64_t total = 0;
  for (int i = 0; i < g.size(); ++i) {
    const std::int64_t w = g.weight_count(i);
    total += (w * weight_bits + 7) / 8;
    const Layer& l = g.layer(i);
    if (is_mac_op(l.kind) && l.has_bias) {
      const int bias_count = l.kind == OpKind::DepthwiseConv2D
                                 ? g.shape(l.inputs[0]).c
                                 : l.out_channels;
      total += static_cast<std::int64_t>(bias_count) * 4;
    }
  }
  return total;
}

// --- arena placement --------------------------------------------------------

ArenaPlanner::ArenaPlanner(std::int64_t alignment) : alignment_(alignment) {
  QMCU_REQUIRE(alignment > 0, "arena alignment must be positive");
}

ArenaPlan ArenaPlanner::plan(std::span<const ArenaRequest> requests) const {
  ArenaPlan plan;
  plan.slots.resize(requests.size());
  const auto align_up = [&](std::int64_t v) {
    return (v + alignment_ - 1) / alignment_ * alignment_;
  };

  // Largest first; ties broken by earlier birth then index, for determinism.
  std::vector<std::size_t> order(requests.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (requests[a].size != requests[b].size)
      return requests[a].size > requests[b].size;
    if (requests[a].first_step != requests[b].first_step)
      return requests[a].first_step < requests[b].first_step;
    return a < b;
  });

  std::vector<std::size_t> placed;  // indices into plan.slots
  placed.reserve(requests.size());
  for (std::size_t idx : order) {
    const ArenaRequest& req = requests[idx];
    QMCU_REQUIRE(req.size >= 0, "arena request size must be non-negative");
    QMCU_REQUIRE(req.first_step <= req.last_step,
                 "arena request lifetime must be non-empty");
    ArenaSlot slot{0, req.size, req.first_step, req.last_step};

    // Collect byte ranges of lifetime-overlapping, already-placed slots,
    // sorted by offset, and first-fit into the gaps.
    std::vector<const ArenaSlot*> busy;
    for (std::size_t p : placed) {
      if (plan.slots[p].overlaps_lifetime(slot)) busy.push_back(&plan.slots[p]);
    }
    std::sort(busy.begin(), busy.end(),
              [](const ArenaSlot* a, const ArenaSlot* b) {
                return a->offset < b->offset;
              });
    std::int64_t candidate = 0;
    for (const ArenaSlot* b : busy) {
      if (candidate + slot.size <= b->offset) break;  // fits in this gap
      candidate =
          std::max(candidate, align_up(b->offset + b->size));
    }
    slot.offset = candidate;
    plan.slots[idx] = slot;
    placed.push_back(idx);
    plan.peak_bytes = std::max(plan.peak_bytes, slot.offset + slot.size);
  }

  // Sum-of-live accounting peak, for comparison with the placed extent.
  int max_step = 0;
  for (const ArenaRequest& r : requests) max_step = std::max(max_step, r.last_step);
  for (int step = 0; step <= max_step; ++step) {
    std::int64_t live = 0;
    for (const ArenaRequest& r : requests) {
      if (r.first_step <= step && step <= r.last_step) live += r.size;
    }
    plan.live_peak_bytes = std::max(plan.live_peak_bytes, live);
  }
  return plan;
}

ParallelArenaPlan ArenaPlanner::plan_parallel(
    std::span<const ArenaRequest> per_worker,
    std::span<const ArenaRequest> shared, int num_workers) const {
  QMCU_REQUIRE(num_workers >= 1, "parallel plan needs at least one worker");
  ParallelArenaPlan p;
  p.slice = plan(per_worker);
  p.shared = plan(shared);
  p.num_workers = num_workers;
  p.slice_stride =
      (p.slice.peak_bytes + alignment_ - 1) / alignment_ * alignment_;
  return p;
}

ParallelArenaPlan ArenaPlanner::plan_pipelined(
    std::span<const ArenaRequest> per_worker,
    std::span<const ArenaRequest> shared, int num_workers,
    int overlap_horizon) const {
  QMCU_REQUIRE(overlap_horizon >= 0, "overlap horizon must be non-negative");
  std::vector<ArenaRequest> widened(shared.begin(), shared.end());
  for (ArenaRequest& r : widened) {
    if (r.first_step <= overlap_horizon) {
      r.first_step = 0;
      r.last_step = std::max(r.last_step, overlap_horizon);
    }
  }
  return plan_parallel(per_worker, widened, num_workers);
}

ArenaPlan ArenaPlanner::plan(const Graph& g,
                             std::span<const int> act_bits) const {
  QMCU_REQUIRE(static_cast<int>(act_bits.size()) == g.size(),
               "act_bits must cover every layer");
  std::vector<ArenaRequest> requests(static_cast<std::size_t>(g.size()));
  for (int i = 0; i < g.size(); ++i) {
    requests[static_cast<std::size_t>(i)] = {
        g.shape(i).bytes(act_bits[static_cast<std::size_t>(i)]), i,
        last_use_step(g, i)};
  }
  return plan(requests);
}

}  // namespace qmcu::nn
