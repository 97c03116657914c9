// compiled_patch_model.h — compile-once / run-many patch-based inference
// against one static tensor arena, sequentially or across a worker pool.
//
// QuantMCU's runtime is one integer dataflow: the input is quantized once
// into its own arena slot, patch branches compute disjoint tiles of the
// cut-layer feature map at their own bit widths (uniform int8, or the
// mixed-mode per-branch step params and rescaled biases VDQS chose), and a
// layer-based int8 tail follows. Float inference is the host reference
// (nn::Executor); CompiledPatchQuantModel is the deployment engine.
//
// The model plans, once:
//
//   * one arena slot per branch *step index*, sized to the largest map any
//     branch stores at that step (branches share the slot layout — they
//     have identical step structure; their region extents and, in mixed
//     mode, their bit widths differ). A sub-byte map is stored bit-packed
//     (patch/packed_map.h): packed rows padded to 32 elements, so a 4-bit
//     map takes about half the bytes of its int8 twin. Int8 maps are
//     dense;
//   * one slot for the reassembled cut-layer feature map, live from the
//     first branch through its last tail consumer;
//   * one slot per tail layer, placed over layer-based lifetimes;
//   * one slot for the quantized full input, live across the whole branch
//     phase.
//
// The staged input, the assembled map and the tail stay int8.
//
// Sequential run(): all slots come from one nn::ArenaPlanner pass over a
// unified timeline (branch steps first, tail steps after), so branch
// buffers, the shared accumulation buffer and tail feature maps pack into a
// single arena the way the deployed runtime lays out SRAM.
//
// Parallel run(input, pool): a dependency-driven task graph over a
// nn::WorkerPool. Stage-1 branches are spatially independent — their only
// interaction is the final merge into *disjoint* tiles of the assembled
// map — so they become independent tasks (cost-weighted: cheap border
// branches coalesce into one task, see patch::weighted_chunks). The tail
// does not wait for a full branch barrier: each early tail layer is split
// into row-band tasks whose input-row intervals come from
// patch::receptive_field, and a band depends only on the branch tasks (and
// upstream bands) that produce those rows — so the tail starts on spare
// workers while interior branches are still running. Tail layers that need
// the whole map (GlobalAvgPool, FullyConnected, Softmax) and everything
// after them run as one final task behind the graph's join.
//
// The arena uses the nn::ParallelArenaPlan layout: one private branch-slot
// slice per worker followed by one shared region (assembled map, tail
// slots, quantized input), planned by ArenaPlanner::plan_pipelined, which
// widens the lifetimes of everything live during the overlap window
// (assembled map, quantized input, banded tail layers) so no tail band can
// recycle bytes a still-running branch reads or writes. Each worker lane
// owns a WorkerCtx (KernelBackend with its own scratch + panel cache, crop
// arena, step views) handed to its thread at dispatch via the backend's
// thread-affinity guard; the merge is the lock-free tiled merge of
// region_pool.h, and the scheduler's dependency edges publish merged rows
// to the bands that read them. Outputs are bit-identical to the sequential
// path for every worker count and every readiness order (the kernels see
// the same values; only which thread runs them, and when, changes); a
// null/1-worker pool takes the sequential code path exactly.
//
// Step inputs are read in place wherever they can be. When a step's input
// window is whole rows of its producer's map — a pointwise conv's input, an
// Add/Concat operand over the producer's own region, a tail band's
// in-bounds full-width window — the step borrows a view of the producer's
// arena bytes; the planner's lifetimes keep those bytes disjoint from the
// step's output slot (checked on every borrow). Only windows that reach
// into padding or cut columns off the producer's region are copied: a
// row-wise halo crop (padding memset, in-bounds span memcpy) into a
// grow-only scratch pool reused across steps. Crops are scratch, not
// feature maps, and are accounted via scratch_bytes(). A branch's input
// tile is requantized straight from the staged input, row span by row
// span, with no crop at all.
//
// A step that reads or writes a packed map runs in row bands instead: each
// band unpacks the operand rows it needs (the halo crop from a packed map
// may start mid-byte) into scratch, runs the same pad-free kernel into a
// dense scratch band and packs that band into its slot. Bands are sized so
// a band's scratch stays within 16 KiB (one row at least), so packing does
// not move the map into scratch; every kernel sees the values it saw
// unbanded, so outputs are bit-identical. The merge unpacks a tile a row
// chunk at a time.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "nn/compiled_model.h"
#include "nn/graph.h"
#include "nn/memory_planner.h"
#include "nn/ops/backend.h"
#include "nn/runtime/arena_slab.h"
#include "nn/runtime/worker_pool.h"
#include "nn/tensor.h"
#include "patch/packed_map.h"
#include "patch/patch_plan.h"

namespace qmcu::patch {

// Per-step QuantParams for one branch, parallel to PatchBranch::steps.
struct BranchQuantConfig {
  std::vector<nn::QuantParams> per_step;
};

// One row-banded tail layer of the pipelined dataflow graph: the layer's
// output rows are split into `bands`; band j's tasks depend on whatever
// produces its input rows (branch tasks for the first tail layer, upstream
// bands after that). Derived once at construction from the plan.
struct PipelinedTailLayer {
  int layer_id = -1;
  std::vector<Interval> bands;  // output row intervals, in order
  // Per band: grid rows whose branches must have merged (reads of the
  // assembled map), and (layer index into the prefix, band index) pairs
  // for upstream banded layers.
  std::vector<std::vector<int>> grid_row_deps;
  std::vector<std::vector<std::pair<int, int>>> band_deps;
};

// Mixed mode: per-branch per-step int32 biases rescaled to the branch's
// actual input scales (empty vectors for non-MAC steps). The branch's step
// parameters set the real input scale of each MAC step, so biases must be
// rescaled per branch (the shared QuantizedParameters bias table is built
// against the deployment config). Shared by the model and the artifact
// writer.
std::vector<std::vector<std::vector<std::int32_t>>> build_branch_bias(
    const nn::Graph& g, const PatchPlan& plan,
    std::span<const BranchQuantConfig> branch_cfgs,
    const nn::QuantizedParameters& params);

// Construction-time products precomputed by the plan-artifact loader:
// mixed-mode branch biases and the panel/offset bundle every lane backend
// adopts (see nn::PrecompiledBundle). Empty members fall back to
// in-constructor computation.
struct PrecompiledPatchParts {
  std::vector<std::vector<std::vector<std::int32_t>>> branch_bias;
  std::shared_ptr<const nn::PrecompiledBundle> kernels;
};

// --- streaming -------------------------------------------------------------

// Per-stream persistent state for run_streaming: the arena whose retained
// bytes (assembled map tiles, tail feature maps) carry clean branches' work
// from frame to frame, plus the per-frame dirty mask and change-propagation
// flags. One StreamState per stream; the model is stateless across streams
// and several streams may share one model (serving: one state per lane).
//
// run_streaming binds the *streaming* arena layout — every shared slot's
// lifetime widened to the whole timeline, so no tail slot can recycle bytes
// another retained slot owns across frames (the sequential and pipelined
// layouts overlay dead slots, which is exactly what retention forbids).
// The worker count is pinned by the first frame: the slice layout, and
// therefore every retained offset, depends on it.
struct StreamState {
  StreamState() = default;
  StreamState(const StreamState&) = delete;
  StreamState& operator=(const StreamState&) = delete;

  // Caller-set before each frame: branch_dirty[b] != 0 schedules branch b
  // (see patch::dirty_branches). Ignored on the first frame — everything
  // runs until the state is primed. A recomputed branch whose merged tile
  // matches the retained bytes still leaves its grid row clean.
  std::vector<std::uint8_t> branch_dirty;
  // Optional, caller-set with branch_dirty: per input row, a column span
  // covering every pixel that differs from the previous frame run through
  // this state (patch::FrameDiff::row_spans). A primed frame then
  // re-quantizes only those spans of the retained input slot, which holds
  // the previous frame's codes everywhere else; when empty, the whole input
  // is quantized. Consumed by the frame: run_streaming clears it, so spans
  // never carry over to a frame they were not computed for.
  std::vector<Interval> changed_rows;

  // Stats for the frame just run (reset at each run_streaming entry).
  [[nodiscard]] std::int64_t frame_branches_run() const {
    return branches_run.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t frame_bands_run() const {
    return bands_run.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool frame_changed_output() const {
    return any_changed.load(std::memory_order_relaxed) != 0;
  }
  [[nodiscard]] bool is_primed() const { return primed; }
  [[nodiscard]] int pinned_workers() const { return workers; }

  // Forget everything (scene cut / rebind to another model): the next
  // frame runs in full and may re-pin a new worker count.
  void reset() {
    branch_dirty.clear();
    changed_rows.clear();
    lease.release();
    owned.clear();
    row_changed.reset();
    band_changed.reset();
    band_offset.clear();
    workers = 0;
    primed = false;
  }

  // -- managed by run_streaming ----------------------------------------
  nn::ArenaSlab::Lease lease;       // slab-backed retained arena
  std::vector<std::uint8_t> owned;  // fallback when no slab is attached
  int workers = 0;                  // pinned by the first frame
  bool primed = false;              // first frame completed
  // Per-frame change propagation: which grid rows merged new bytes, which
  // tail bands recomputed (relaxed atomics — the task graph's dependency
  // edges order every read after the writes it needs).
  std::unique_ptr<std::atomic<char>[]> row_changed;
  std::unique_ptr<std::atomic<char>[]> band_changed;
  std::vector<int> band_offset;  // band_changed index base per tail layer
  std::atomic<char> any_changed{0};
  std::atomic<std::int64_t> branches_run{0};
  std::atomic<std::int64_t> bands_run{0};
};

// --- the model -------------------------------------------------------------

class CompiledPatchQuantModel {
 public:
  // Uniform mode: branch steps inherit the per-layer params of `cfg`;
  // mixed mode: `branch_cfgs[b].per_step[s]` overrides branch b's step s.
  // Prebuilt shared parameters (QuantizedParameters::build_shared) skip the
  // per-model weight conversion.
  CompiledPatchQuantModel(
      const nn::Graph& g, PatchPlan plan, nn::ActivationQuantConfig cfg,
      std::vector<BranchQuantConfig> branch_cfgs = {},
      nn::ops::KernelTier tier = nn::ops::KernelTier::Simd,
      std::shared_ptr<const nn::QuantizedParameters> params = {});
  // Artifact path: precomputed branch biases / kernel bundle skip the
  // corresponding construction-time work (the bundle's panels are adopted
  // by the model backend and every worker lane). Supplied biases must
  // match the plan's branches and steps and the shared bias lengths.
  CompiledPatchQuantModel(
      const nn::Graph& g, PatchPlan plan, nn::ActivationQuantConfig cfg,
      std::vector<BranchQuantConfig> branch_cfgs,
      std::shared_ptr<const nn::QuantizedParameters> params,
      PrecompiledPatchParts parts,
      nn::ops::KernelTier tier = nn::ops::KernelTier::Simd);

  [[nodiscard]] nn::QTensor run(const nn::Tensor& input) const;
  // Pipelined dataflow run: stage-1 branch tasks and tail row-band tasks
  // scheduled as one dependency graph over `pool` (see the header
  // comment). Bit-identical to run() for every worker count and readiness
  // order. A null pool or a 1-worker pool takes the sequential path
  // exactly.
  [[nodiscard]] nn::QTensor run(const nn::Tensor& input,
                                nn::WorkerPool* pool) const;
  // Temporal-reuse run over `state` (see StreamState): only branches with
  // state.branch_dirty set are recomputed — clean branches contribute
  // their retained assembled-map tiles for free — and tail row-bands whose
  // upstream grid rows merged no new bytes are skipped, as is the
  // non-banded rest of the tail when nothing changed at all. Bit-identical
  // to run() on the same frame for every worker count, provided the dirty
  // mask is conservative (patch::dirty_branches exact mode, computed on
  // the float frames — quantization is deterministic per element). A null
  // pool or 1-worker pool streams sequentially over the same retained
  // layout.
  [[nodiscard]] nn::QTensor run_streaming(const nn::Tensor& input,
                                          nn::WorkerPool* pool,
                                          StreamState& state) const;

  [[nodiscard]] const nn::ArenaPlan& arena_plan() const { return aplan_; }
  [[nodiscard]] std::int64_t arena_bytes() const { return aplan_.peak_bytes; }
  // The slice/shared layout a pipelined run with `num_workers` binds
  // (cached per worker count).
  [[nodiscard]] const nn::ParallelArenaPlan& pipelined_plan(
      int num_workers) const;
  // The retained streaming layout: shared lifetimes widened to the whole
  // timeline so no slot's bytes are ever overlaid between frames.
  [[nodiscard]] const nn::ParallelArenaPlan& streaming_plan(
      int num_workers) const;
  // The row-banded tail prefix of the pipelined graph (compile-time).
  [[nodiscard]] std::span<const PipelinedTailLayer> pipelined_tail() const {
    return pipeline_;
  }
  // How many pipelined TaskGraph skeletons are cached (one per distinct
  // worker count seen) — repeated runs at the same width must not grow it.
  [[nodiscard]] std::size_t cached_pipeline_graphs() const {
    return pipeline_graphs_.size();
  }
  // Serving integration: when set, run arenas are leased from `slab` for
  // the duration of each run instead of a model-owned buffer, so many
  // models can share max-sized slices instead of the per-model sum.
  void set_arena_source(std::shared_ptr<nn::ArenaSlab> slab) {
    arena_source_ = std::move(slab);
  }
  // Test-only: called after each branch finishes (merge included) inside
  // parallel runs, before its completion is published to dependents —
  // tests stall chosen branches here to force adversarial readiness
  // orders. Not for production use.
  void set_branch_completion_hook(std::function<void(int)> hook) const {
    branch_hook_ = std::move(hook);
  }
  // Opt-in activation statistics: called once per completed run on the
  // calling thread, for the assembled cut layer and every tail layer, with
  // the layer's output view (drift tracking — see
  // nn::streaming::ActivationStatsTracker). Null clears it.
  void set_stats_hook(
      std::function<void(int, const nn::QTensor&)> hook) const {
    stats_hook_ = std::move(hook);
  }
  [[nodiscard]] std::int64_t measured_high_water() const { return measured_; }
  // Crop-temporary + backend scratch held after the last run, including
  // every worker context's share.
  [[nodiscard]] std::int64_t scratch_bytes() const;
  [[nodiscard]] const PatchPlan& plan() const { return plan_; }
  [[nodiscard]] const nn::Graph& graph() const { return *graph_; }
  // The calling thread's kernel backend, for inspection (its tier and
  // the microkernel table it resolved at construction).
  [[nodiscard]] const nn::ops::KernelBackend& backend() const {
    return self_.backend;
  }

  // Compile-time tables: the artifact writer, the inspectors and the
  // tests' per-step oracle read them instead of rebuilding their own.
  [[nodiscard]] const std::shared_ptr<const nn::QuantizedParameters>&
  shared_parameters() const {
    return params_;
  }
  [[nodiscard]] const nn::ActivationQuantConfig& config() const {
    return cfg_;
  }
  [[nodiscard]] std::span<const nn::QuantParams> effective_params() const {
    return effective_;
  }
  [[nodiscard]] std::span<const BranchQuantConfig> branch_configs() const {
    return branch_cfgs_;
  }
  [[nodiscard]] const std::vector<std::vector<std::vector<std::int32_t>>>&
  branch_bias() const {
    return branch_bias_;
  }
  // The params branch step `step` of branch `branch` computes at: the
  // mixed-mode per-step override when branch configs exist, otherwise the
  // pool-propagated effective params of the step's layer.
  [[nodiscard]] const nn::QuantParams& step_params(int branch,
                                                   int step) const;
  // The params branch `branch` stores step `step`'s map at. Pools never
  // requantize: they carry their producer's params. Sub-byte maps are
  // stored packed.
  [[nodiscard]] const nn::QuantParams& stored_params(int branch,
                                                     int step) const;

 private:
  // One lane's private execution state. The backend (scratch + panel
  // cache) and crop arena are thread-affine; dispatch rebinds them to
  // whichever thread runs the lane.
  struct WorkerCtx {
    explicit WorkerCtx(nn::ops::KernelTier tier) : backend(tier) {}
    // Hands the context to the calling thread for one run.
    void begin_run(int steps) {
      backend.rebind_thread();
      crops.rebind_thread();
      step_views.resize(static_cast<std::size_t>(steps));
      measured = 0;
    }
    nn::ops::KernelBackend backend;
    nn::ops::ScratchArena crops;
    std::vector<PackedMap> step_views;  // per step, rebound per branch
    std::int64_t measured = 0;          // furthest byte written
  };

  // Validates the branch configs and supplied biases, then plans the
  // arena, the pipelined tail and the branch pricing.
  void compile(const nn::Graph& g,
               std::vector<std::vector<std::vector<std::int32_t>>> bias);
  void check_input(const nn::Tensor& input) const;
  // Binds every shared view of one run at `base` — the assembled map and
  // each tail layer — and quantizes the input into its slot (only the
  // changed spans of a primed stream). `slots` is indexed by timeline
  // request index minus `first` (0 for the sequential plan, num_steps_ for
  // a parallel plan's shared region).
  void stage(const nn::Tensor& input, std::uint8_t* base,
             std::span<const nn::ArenaSlot> slots, int first,
             std::int64_t& measured) const;
  // Runs branch `bi`'s steps against the slot layout `slots` (indices
  // equal step indices) at `base`, then merges the final tile into the
  // assembled map. With `merge_changed` set the merge compares before
  // writing and reports whether any assembled byte changed.
  void exec_branch(int bi, std::uint8_t* base,
                   std::span<const nn::ArenaSlot> slots, WorkerCtx& ctx,
                   bool* merge_changed = nullptr) const;
  // Computes rows `band` (global coordinates, the step's x extent) of
  // branch `bi`'s step `s` into `out`. A step runs as one band unless it
  // reads or writes a packed map; then each band unpacks only the operand
  // rows it needs and packs the rows it produced.
  void exec_step_band(int bi, int s, const Region& band,
                      std::span<PackedMap> views, const PackedMap& out,
                      WorkerCtx& ctx) const;
  // Requantizes region `want` of the staged input into `out` (a band of
  // the branch's input tile, in the tile's params).
  void input_into(nn::ops::KernelBackend& backend, const Region& want,
                  nn::QTensor& out) const;
  // A windowed op (conv / depthwise) with the branch's bias in mixed mode;
  // bi < 0 means a tail layer (shared parameters).
  void windowed_into(nn::ops::KernelBackend& backend, const nn::QTensor& in,
                     const nn::Layer& local, int layer_id, int bi, int s,
                     nn::QTensor& out) const;
  [[nodiscard]] const nn::ops::AvgPoolMultipliers* pool_table(
      const nn::Layer& l) const;
  // Computes output rows `rows` of banded tail layer `layer_id` from the
  // pre-bound tail views.
  void exec_tail_band(int layer_id, const Interval& rows,
                      WorkerCtx& ctx) const;
  void run_tail_layers(int first_id, nn::ops::KernelBackend& backend) const;
  // Feeds the stats hook the cut layer and every tail layer.
  void observe() const;
  // Adopts the artifact's precomputed panels, then pre-packs every
  // conv/fc panel a lane may need so a lane's first run pays no packing
  // cost.
  void prepare_lane(nn::ops::KernelBackend& backend) const;
  // The three task bodies of the dataflow graph (sequential streaming
  // drives them on the model's own context). Each consults run_stream_:
  // streaming skips clean branches, unneeded bands and an unchanged rest.
  void branch_task(std::int64_t b, WorkerCtx& ctx, std::uint8_t* slice,
                   std::span<const nn::ArenaSlot> slots) const;
  void band_task(std::size_t pi, std::size_t j, WorkerCtx& ctx) const;
  void rest_task(WorkerCtx& ctx) const;
  // Stages `input` into the parallel layout `pplan` at `data` and runs it:
  // the cached graph over `pool`, or, for a 1-lane streaming layout, the
  // task bodies in order on the calling thread.
  void run_parallel(const nn::Tensor& input, nn::WorkerPool* pool,
                    const nn::ParallelArenaPlan& pplan,
                    std::uint8_t* data) const;
  WorkerCtx& worker_ctx(int lane) const;
  std::span<std::uint8_t> bind_run_arena(std::int64_t need,
                                         nn::ArenaSlab::Lease& lease) const;
  // Streaming internals: size `state` for this plan and pin its worker
  // count; arena binding that retains the lease/buffer across frames; the
  // band-skip predicate and the change-propagation marks (see StreamState).
  void prime_stream_state(StreamState& state, int workers) const;
  std::span<std::uint8_t> bind_stream_arena(std::int64_t need,
                                            StreamState& state) const;
  bool stream_band_needed(const StreamState& state, std::size_t pi,
                          std::size_t j) const;
  void stream_mark_branch(StreamState& state, std::int64_t b,
                          bool changed) const;
  void stream_mark_band(StreamState& state, std::size_t pi,
                        std::size_t j) const;
  // The cached dataflow graph for `num_workers` lanes. Its task bodies
  // capture only `this`: per-run state (arena base, plan, stream) is
  // staged in the run_* members before dispatch, so the graph — chunking,
  // band wiring, join — is built once per worker count, not per run.
  nn::TaskGraph& pipeline_graph(int num_workers) const;

  const nn::Graph* graph_;
  PatchPlan plan_;
  // Quantization: the deployment config, its pool-propagated effective
  // params, the mixed-mode per-branch step params and rescaled biases
  // (both empty in uniform mode) and the shared weight conversion.
  nn::ActivationQuantConfig cfg_;
  std::vector<nn::QuantParams> effective_;
  std::vector<BranchQuantConfig> branch_cfgs_;
  std::vector<std::vector<std::vector<std::int32_t>>> branch_bias_;
  std::shared_ptr<const nn::QuantizedParameters> params_;
  // Artifact bundle adopted by every backend (keeps the panel/offset views
  // registered with the backends alive).
  std::shared_ptr<const nn::PrecompiledBundle> bundle_;
  // AvgPool reciprocal tables keyed by window size. Filled at construction
  // for every window the graph contains, then read-only — several workers
  // share them concurrently during parallel runs, so no lazy inserts on the
  // run path.
  std::unordered_map<int, nn::ops::AvgPoolMultipliers> pool_tables_;
  int num_steps_ = 0;       // steps per branch (identical across branches)
  int assembled_slot_ = 0;  // request index of the reassembled cut layer
  int input_slot_ = 0;      // request index of the staged input
  nn::ArenaPlan aplan_;
  // Request lists feeding the parallel layouts: branch-step slots
  // (per-worker slice) and tail + assembled + input slots (shared).
  std::vector<nn::ArenaRequest> slice_requests_;
  std::vector<nn::ArenaRequest> shared_requests_;
  // Pipelined dataflow structure: banded tail prefix, branch pricing for
  // cost-weighted task chunking, and the timeline step of the last banded
  // layer (the lifetime-widening horizon of plan_pipelined).
  std::vector<PipelinedTailLayer> pipeline_;
  std::vector<std::int64_t> branch_costs_;
  int pipeline_horizon_ = 0;
  mutable std::unordered_map<int, nn::ParallelArenaPlan> pipelined_pplans_;
  mutable std::unordered_map<int, nn::ParallelArenaPlan> streaming_pplans_;
  mutable std::unordered_map<int, nn::TaskGraph> pipeline_graphs_;
  // Per-run state read by the cached pipelined graph's tasks; staged
  // before dispatch (the dispatch barrier publishes it to every lane).
  // run_stream_ is non-null only while a streaming frame is in flight —
  // the cached graph serves both modes and checks it per task.
  mutable std::uint8_t* run_data_ = nullptr;
  mutable const nn::ParallelArenaPlan* run_pplan_ = nullptr;
  mutable StreamState* run_stream_ = nullptr;
  std::shared_ptr<nn::ArenaSlab> arena_source_;
  mutable std::function<void(int)> branch_hook_;
  mutable std::function<void(int, const nn::QTensor&)> stats_hook_;
  mutable WorkerCtx self_;  // the calling thread's context
  mutable std::vector<std::unique_ptr<WorkerCtx>> workers_;
  mutable std::vector<std::uint8_t> arena_;
  mutable nn::QTensor input_;                 // the staged input (arena view)
  mutable std::vector<nn::QTensor> tail_memo_;  // per layer id (tail phase)
  mutable std::int64_t measured_ = 0;
};

}  // namespace qmcu::patch
