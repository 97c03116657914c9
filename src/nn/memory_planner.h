// memory_planner.h — peak-SRAM accounting and concrete tensor-arena
// placement for layer-based execution.
//
// Two levels of fidelity:
//
//   plan_layer_based — *accounting*. Models a TFLite-Micro style tensor
//   arena: a feature map is resident from the step that produces it until
//   the step of its last consumer; while a layer executes, its inputs and
//   its output are live simultaneously. The peak over all steps is the
//   "Peak Memory" column of the paper's Table I (layer-based row;
//   patch-based peaks come from patch/patch_plan.h). The plan also prices
//   the Simd kernel backend's transient scratch (im2col strips, GEMM
//   accumulators — see fast_scratch_bytes) so the reported SRAM peak covers
//   what the runtime actually touches, not just the feature maps.
//
//   ArenaPlanner — *placement*. Assigns every feature map a concrete byte
//   offset inside one static arena (greedy-by-size first-fit over lifetime
//   intervals, the TFLite-Micro planning strategy). nn::CompiledModel and
//   friends execute against exactly these offsets, which turns the
//   accounting model above into the runtime's actual allocator and lets
//   tests assert measured high-water == planned peak by construction.
//
// Feature-map footprints honour per-layer activation bitwidths so the same
// planner prices int8 and mixed sub-byte schedules.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/graph.h"

namespace qmcu::nn {

struct MemoryPlan {
  std::int64_t peak_bytes = 0;
  int peak_step = -1;                    // layer id at which the peak occurs
  std::vector<std::int64_t> step_bytes;  // live bytes while each layer runs

  // Simd-backend transient scratch while each layer runs (im2col strip,
  // weight panel, GEMM accumulators — the ScratchArena high-water of the
  // uncached-panel mode; with panel caching enabled the panels are resident
  // instead, see panel_bytes).
  std::vector<std::int64_t> step_scratch_bytes;
  std::int64_t scratch_peak_bytes = 0;   // max over step_scratch_bytes

  // Feature maps + transient scratch, the honest single-arena SRAM peak.
  std::int64_t total_peak_bytes = 0;
  int total_peak_step = -1;

  // Sum of k-major weight panels + column sums across MAC layers: resident
  // (not transient) when KernelBackend caches panels. A deployment would
  // precompute these into flash.
  std::int64_t panel_bytes = 0;
};

// `act_bits[i]` is the storage bitwidth of layer i's output feature map.
MemoryPlan plan_layer_based(const Graph& g, std::span<const int> act_bits);

// Convenience: one bitwidth for every feature map (e.g. uniform int8).
std::vector<int> uniform_bits(const Graph& g, int bits);

// Step of the last consumer of layer `id` (its own step if unconsumed).
int last_use_step(const Graph& g, int id);

// Transient Simd-tier scratch bytes layer `id` needs while it runs
// (uncached-panel mode: im2col strip + packed panel + accumulators for
// conv, per-channel accumulators for depthwise, the float detour for
// softmax). Zero for ops that run without scratch. Independent of the
// input's bitwidth: 2/4-bit inputs unpack into the same int8 im2col strip,
// and the price does not depend on the host's kernel table.
std::int64_t fast_scratch_bytes(const Graph& g, int id);

// Resident bytes of layer `id`'s cached k-major weight panel + column sums
// (0 for layers other than Conv2D and FullyConnected; depthwise never
// repacks).
std::int64_t fast_panel_bytes(const Graph& g, int id);

// Flash footprint: every MAC layer's weights at `weight_bits` plus int32
// biases (the model resides in flash on the MCU).
std::int64_t model_flash_bytes(const Graph& g, int weight_bits);

// --- concrete arena placement ----------------------------------------------

// One tensor's placement request: `size` bytes live over the closed step
// interval [first_step, last_step].
struct ArenaRequest {
  std::int64_t size = 0;
  int first_step = 0;
  int last_step = 0;
};

// A placed tensor: byte range [offset, offset + size) inside the arena.
struct ArenaSlot {
  std::int64_t offset = 0;
  std::int64_t size = 0;
  int first_step = 0;
  int last_step = 0;

  [[nodiscard]] bool overlaps_lifetime(const ArenaSlot& o) const {
    return first_step <= o.last_step && o.first_step <= last_step;
  }
  [[nodiscard]] bool overlaps_bytes(const ArenaSlot& o) const {
    return offset < o.offset + o.size && o.offset < offset + size;
  }
};

struct ArenaPlan {
  std::vector<ArenaSlot> slots;     // parallel to the request list
  std::int64_t peak_bytes = 0;      // arena extent: max(offset + size)
  // Sum-of-live lower bound (what plan_layer_based-style accounting gives);
  // peak_bytes >= live_peak_bytes, with equality when greedy packing is
  // fragmentation-free.
  std::int64_t live_peak_bytes = 0;
};

// Arena layout for parallel patch execution: one privately-owned slice per
// worker (the branch-phase feature maps a worker rebinds patch after patch)
// followed by one shared region (the reassembled cut-layer map, the
// layer-based tail, the quantized full input). Workers only ever write
// inside their own slice and into disjoint tiles of the shared assembled
// slot, so the layout needs no locks:
//
//   [ slice 0 | slice 1 | ... | slice W-1 | shared ]
//
// `slice` is planned once (it is worker-count independent); the stride is
// its peak rounded up to the planner's alignment so every slice base keeps
// the alignment guarantee.
struct ParallelArenaPlan {
  ArenaPlan slice;   // per-worker branch-phase slots (request order)
  ArenaPlan shared;  // shared slots (request order)
  int num_workers = 1;
  std::int64_t slice_stride = 0;  // aligned slice.peak_bytes

  [[nodiscard]] std::int64_t slice_offset(int worker) const {
    return static_cast<std::int64_t>(worker) * slice_stride;
  }
  [[nodiscard]] std::int64_t shared_offset() const {
    return slice_stride * num_workers;
  }
  [[nodiscard]] std::int64_t total_bytes() const {
    return shared_offset() + shared.peak_bytes;
  }
};

// Greedy-by-size first-fit placement over lifetime intervals (the
// TFLite-Micro arena strategy): tensors are placed largest-first at the
// lowest offset that does not collide with any already-placed tensor whose
// lifetime overlaps. Deterministic; offsets are aligned to `alignment`.
class ArenaPlanner {
 public:
  explicit ArenaPlanner(std::int64_t alignment = 16);

  [[nodiscard]] ArenaPlan plan(std::span<const ArenaRequest> requests) const;

  // Graph convenience: one request per layer, sized to the *packed*
  // footprint of its output feature map at act_bits[i], live from its
  // producing step through its last consumer. This is the accounting-grade
  // placement matching plan_layer_based's liveness model.
  [[nodiscard]] ArenaPlan plan(const Graph& g,
                               std::span<const int> act_bits) const;

  // Parallel layout: places `per_worker` into one slice (replicated
  // `num_workers` times at slice_stride) and `shared` into the region after
  // the last slice. Slice request lifetimes are per-worker-local and shared
  // request lifetimes global, so the two lists are packed independently.
  [[nodiscard]] ParallelArenaPlan plan_parallel(
      std::span<const ArenaRequest> per_worker,
      std::span<const ArenaRequest> shared, int num_workers) const;

  // Pipelined variant: the dependency-driven patch runtime executes tail
  // row bands *while* branches are still running, so the shared region's
  // step timeline no longer serialises the two phases. Every shared
  // request born at or before `overlap_horizon` (the timeline step of the
  // last row-banded tail layer) is widened to live over the whole
  // pipelined window [0, max(last_step, overlap_horizon)] — those slots
  // (assembled map, quantized input, banded tail layers) may all be
  // written or read concurrently, so none of them may reuse another's
  // bytes. Requests born after the horizon run strictly after the
  // pipeline's join and keep their step lifetimes (and may therefore
  // still recycle a widened slot's bytes).
  [[nodiscard]] ParallelArenaPlan plan_pipelined(
      std::span<const ArenaRequest> per_worker,
      std::span<const ArenaRequest> shared, int num_workers,
      int overlap_horizon) const;

 private:
  std::int64_t alignment_;
};

}  // namespace qmcu::nn
