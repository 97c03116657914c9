#include "patch/compiled_patch_model.h"

#include <algorithm>
#include <utility>

#include "nn/ops/requantize.h"
#include "nn/ops/simd/simd_kernels.h"
#include "patch/patch_cost.h"
#include "patch/region_crop.h"
#include "patch/region_pool.h"

namespace qmcu::patch {

namespace {

using nn::ArenaRequest;

// Branch step liveness is identical across branches (same layer structure),
// so the unified timeline is: step indices [0, S) for the branch phase
// (slots reused branch after branch), then one step per tail layer.
struct PatchTimeline {
  std::vector<ArenaRequest> requests;
  int num_steps = 0;        // S
  int assembled_index = 0;  // request index of the reassembled cut layer
};

nn::TensorShape region_shape(const BranchStep& step, int channels) {
  return {step.out_region.y.size(), step.out_region.x.size(), channels};
}

// Tail and assembled-map slots hold one byte per element;
// `step_bytes(b, s, shape)` sizes branch b's step-s map, which is stored
// packed when it is sub-byte.
template <class StepBytes>
PatchTimeline build_timeline(const nn::Graph& g, const PatchPlan& plan,
                             const StepBytes& step_bytes) {
  PatchTimeline t;
  const PatchBranch& proto = plan.branches.front();
  t.num_steps = static_cast<int>(proto.steps.size());
  const int split = plan.spec.split_layer;
  const int tail_count = g.size() - split - 1;

  // Branch slots: the largest map any branch stores at each step. Branches
  // differ in region and, in mixed mode, in bits, so the maximum is taken
  // over stored bytes.
  for (int s = 0; s < t.num_steps; ++s) {
    std::int64_t size = 0;
    for (std::size_t b = 0; b < plan.branches.size(); ++b) {
      const BranchStep& step =
          plan.branches[b].steps[static_cast<std::size_t>(s)];
      const nn::TensorShape shape =
          region_shape(step, g.shape(step.layer_id).c);
      size = std::max(size, step_bytes(static_cast<int>(b), s, shape));
    }
    t.requests.push_back({size, s, branch_last_use(g, proto, s)});
  }
  // Tail slots over layer-based lifetimes, shifted onto the timeline.
  for (int id = split + 1; id < g.size(); ++id) {
    t.requests.push_back({g.shape(id).elements(),
                          t.num_steps + (id - split - 1),
                          t.num_steps + (nn::last_use_step(g, id) - split - 1)});
  }
  // The reassembled cut-layer map: written branch by branch, read by the
  // tail — live from the first branch step through its last tail consumer.
  const int last_use = nn::last_use_step(g, split);
  const int assembled_last = last_use > split
                                 ? t.num_steps + (last_use - split - 1)
                                 : std::max(t.num_steps - 1, 0);
  t.assembled_index = t.num_steps + tail_count;
  t.requests.push_back({g.shape(split).elements(), 0, assembled_last});
  return t;
}

// The scratch a branch-step band draws from: the crop arena, or for a band
// that touches a packed map one block of it reserved for all the band's
// buffers. The arena's footprint is the sum, over allocation slots, of the
// largest buffer each slot ever held, so carving a band's operand windows
// and output rows from one block keeps it inside the slot the halo crops
// (and, on worker lanes, the tail bands' crops) already size.
class BandScratch {
 public:
  explicit BandScratch(nn::ops::ScratchArena& arena) : arena_(arena) {}
  void reserve_i8(std::int64_t n) {
    block_ = arena_.i8(static_cast<std::size_t>(n));
  }
  std::span<std::int8_t> i8(std::size_t n) {
    if (n > block_.size()) return arena_.i8(n);
    const auto taken = block_.first(n);
    block_ = block_.subspan(n);
    return taken;
  }

 private:
  nn::ops::ScratchArena& arena_;
  std::span<std::int8_t> block_;
};

// A crop temporary from `a` shaped `s` with params `p`.
nn::QTensor scratch_q(BandScratch& a, const nn::TensorShape& s,
                      const nn::QuantParams& p) {
  auto buf = a.i8(static_cast<std::size_t>(s.elements()));
  return nn::QTensor(s, p, std::span<std::int8_t>(buf.data(), buf.size()));
}

// Merges a finished tile into the assembled map (plain, or
// compare-before-write when `changed` is set). The tile is requantized
// into the assembled map's params (identity row copy in uniform mode),
// unpacked a row chunk at a time when it is stored packed. Tiles are
// disjoint, so concurrent merges from several workers commute.
void merge_tile(nn::ops::KernelBackend& backend, const PackedMap& tile,
                const Region& r, nn::QTensor& assembled, bool* changed) {
  const auto* simd = backend.simd_kernels();
  const auto merge = [&](const auto& t) {
    if (changed == nullptr) {
      merge_region_q(t, r, assembled, simd);
    } else {
      *changed = merge_region_q_changed(t, r, assembled, simd);
    }
  };
  if (tile.packed()) {
    merge(tile);
  } else {
    merge(tile.dense());
  }
}

// Binds a view onto its planned slot at `base`. `measured` tracks the
// furthest byte actually written through bound views (base-relative), not
// the planned slot size: the high-water is a measurement, and it reaches
// the planned peak because the largest branch fully exercises its slot.
nn::QTensor bind_q_slot(std::uint8_t* base, const nn::ArenaSlot& slot,
                        const nn::TensorShape& shape, const nn::QuantParams& p,
                        std::int64_t& measured) {
  QMCU_ENSURE(shape.elements() <= slot.size,
              "bound view exceeds its arena slot");
  measured = std::max(measured, slot.offset + shape.elements());
  auto* data = reinterpret_cast<std::int8_t*>(base + slot.offset);
  return nn::QTensor(
      shape, p,
      std::span<std::int8_t>(data,
                             static_cast<std::size_t>(shape.elements())));
}

// A zero-copy view of rows [rows.begin, rows.end) of a full feature map —
// rows are contiguous in HWC layout, so a tail band writes (and element-wise
// bands read) straight through the bound arena view.
nn::QTensor row_view(nn::QTensor& t, const Interval& rows) {
  const nn::TensorShape& s = t.shape();
  const std::int64_t stride = static_cast<std::int64_t>(s.w) * s.c;
  return nn::QTensor(
      nn::TensorShape{rows.size(), s.w, s.c}, t.params(),
      t.data().subspan(static_cast<std::size_t>(rows.begin * stride),
                       static_cast<std::size_t>(rows.size() * stride)));
}

constexpr bool rows_overlap(const Interval& a, const Interval& b) {
  return a.begin < b.end && b.begin < a.end;
}

// Whether `want` is a run of whole rows of a tensor covering `avail`: the
// same x extent, rows inside. Producer regions are clamped to the map, so
// such a window needs no padding.
constexpr bool rows_within(const Region& avail, const Region& want) {
  return want.x == avail.x && want.y.begin >= avail.y.begin &&
         want.y.end <= avail.y.end;
}

// The arena bytes a view covers, for the borrow overlap check.
struct ByteRange {
  std::uintptr_t begin = 0;
  std::uintptr_t end = 0;
};

ByteRange byte_range(const nn::QTensor& t) {
  const auto b = reinterpret_cast<std::uintptr_t>(t.data().data());
  return {b, b + t.data().size_bytes()};
}

ByteRange byte_range(const PackedMap& m) {
  const auto b = reinterpret_cast<std::uintptr_t>(m.data);
  return {b, b + static_cast<std::uintptr_t>(m.bytes())};
}

constexpr bool overlaps(const ByteRange& a, const ByteRange& b) {
  return a.begin < b.end && b.begin < a.end;
}

// A step's input window `want` of the map `have` holds (region `avail` of a
// map with extent `full`). When the window is whole rows of `have` —
// pointwise convs, same-region Add/Concat operands, in-bounds full-width
// tail bands — the step borrows a view of the producer's bytes. Otherwise
// it is a halo crop into `crops` with zero padding (the producer's zero
// point — the quantized encoding of real 0). A borrowed view must not
// share bytes with `out`, the step's output slot: a crop would hide such
// an overlap, a view would not.
nn::QTensor step_input(nn::QTensor& have, const Region& avail,
                       const Region& want, const nn::TensorShape& full,
                       const ByteRange& out, BandScratch& crops) {
  if (rows_within(avail, want)) {
    nn::QTensor view = row_view(have, {want.y.begin - avail.y.begin,
                                       want.y.end - avail.y.begin});
    QMCU_ENSURE(!overlaps(byte_range(view), out),
                "borrowed step input overlaps the step's output slot");
    return view;
  }
  nn::QTensor crop = scratch_q(
      crops, nn::TensorShape{want.y.size(), want.x.size(), full.c},
      have.params());
  crop_from_region_q_into(have, avail, want, full, crop);
  return crop;
}

// --- branch-step maps: dense int8 and packed maps --------------------------
//
// An int8 step is one band that reads its operands in place (or
// halo-cropped) and writes straight into its slot; a step touching a
// packed map runs in row bands, each unpacking its operand rows into
// scratch and packing the rows it produced.

// A step's input window `want` of a branch-step map. Packed maps are
// unpacked (with zero-point padding) into scratch, a row band at a time.
nn::QTensor step_input(const PackedMap& have, const Region& avail,
                       const Region& want, const nn::TensorShape& full,
                       const PackedMap& out, BandScratch& crops,
                       const nn::ops::simd::SimdKernels* simd) {
  if (!have.packed()) {
    nn::QTensor dense = have.dense();
    return step_input(dense, avail, want, full, byte_range(out), crops);
  }
  nn::QTensor crop = scratch_q(
      crops, nn::TensorShape{want.y.size(), want.x.size(), full.c},
      have.params);
  crop_packed_into(have, avail, want, full, crop, simd);
  return crop;
}

// A pooling step's source for output band `band`: the producer map itself
// when it is dense, or (packed) the rows `need` of it unpacked into
// scratch. Returns the tensor and the region of the map it covers.
std::pair<nn::QTensor, Region> pool_input(
    const PackedMap& have, const Region& avail, const Interval& need,
    const nn::TensorShape& full, BandScratch& crops,
    const nn::ops::simd::SimdKernels* simd) {
  if (!have.packed()) return {have.dense(), avail};
  const Region rows{need, avail.x};
  nn::QTensor band = scratch_q(
      crops, nn::TensorShape{rows.y.size(), rows.x.size(), full.c},
      have.params);
  crop_packed_into(have, avail, rows, full, band, simd);
  return {std::move(band), rows};
}

// The dense destination of output rows [y0, y0 + rows) of a step map
// (local coordinates): a view of the slot, or scratch for a packed map.
nn::QTensor band_target(const PackedMap& out, int y0, int rows,
                        BandScratch& crops) {
  const nn::TensorShape s{rows, out.shape.w, out.shape.c};
  if (out.packed()) return scratch_q(crops, s, out.params);
  nn::QTensor dense = out.dense();
  return row_view(dense, {y0, y0 + rows});
}

// Lands a computed band in its map: packs it when the map is packed (dense
// targets were written in place).
void store_band(const PackedMap& out, int y0, const nn::QTensor& band) {
  if (out.packed()) out.store_rows(y0, band);
}

// Scratch a packed step's row band may hold: its dense output rows plus
// every unpacked operand window. The scratch of a packed map stays
// proportional to one band, never to the whole map.
constexpr std::int64_t kBandBytes = 16 * 1024;

// Whether `layer`, as a step of `branch` writing `out`, reads or writes a
// packed map.
bool touches_packed(const nn::Layer& layer, const PatchBranch& branch,
                    std::span<const PackedMap> views, const PackedMap& out) {
  if (out.packed()) return true;
  for (const int in : layer.inputs) {
    const int p = branch.step_of(in);  // < 0: the staged input
    if (p >= 0 && views[static_cast<std::size_t>(p)].packed()) return true;
  }
  return false;
}

// Output rows per band of branch step `s` (output `out`, shaped `shape`):
// the whole region unless the step reads or writes a packed map; then as
// many rows as keep the dense output band and the unpacked operand rows
// it reads (stride rows per output row) within kBandBytes, at least one.
int band_rows(const nn::Graph& g, const PatchBranch& branch, int s,
              std::span<const PackedMap> views, const PackedMap& out,
              const nn::TensorShape& shape) {
  const nn::Layer& layer =
      g.layer(branch.steps[static_cast<std::size_t>(s)].layer_id);
  if (!touches_packed(layer, branch, views, out)) return shape.h;
  std::int64_t row_bytes = static_cast<std::int64_t>(shape.w) * shape.c;
  for (const int in : layer.inputs) {
    const int p = branch.step_of(in);
    if (p < 0) continue;
    const bool elementwise =
        layer.kind == nn::OpKind::Add || layer.kind == nn::OpKind::Concat;
    row_bytes += (elementwise ? 1 : layer.stride_h) *
                 static_cast<std::int64_t>(
                     branch.steps[static_cast<std::size_t>(p)]
                         .out_region.x.size()) *
                 g.shape(in).c;
  }
  return static_cast<int>(
      std::clamp<std::int64_t>(kBandBytes / row_bytes, 1, shape.h));
}

// The streaming layout widens every shared slot's lifetime to the whole
// timeline: retained bytes (assembled tiles, tail maps) must survive from
// frame to frame, so no shared slot may ever be overlaid on another.
std::vector<ArenaRequest> widen_shared(std::vector<ArenaRequest> requests) {
  int last = 0;
  for (const ArenaRequest& r : requests) last = std::max(last, r.last_step);
  for (ArenaRequest& r : requests) {
    r.first_step = 0;
    r.last_step = last;
  }
  return requests;
}

// How many branch tasks each grid row contributes for `workers` lanes:
// roughly two tasks per lane across the whole grid keeps the scheduler fed
// without shredding the cost-weighted coalescing.
int chunks_per_grid_row(const PatchPlan& plan, int workers) {
  return std::max(1, (2 * workers + plan.spec.grid_rows - 1) /
                         plan.spec.grid_rows);
}

// Builds the pipelined dataflow graph: cost-weighted branch-chunk tasks
// per grid row -> tail row-band tasks wired through the precomputed
// readiness structure -> one join task for the non-banded rest of the
// tail. The body callbacks capture only the
// model (`this`), so the returned graph is cacheable per worker count —
// per-run state travels through the model's run_* members instead of the
// closures. Signatures: branch(b, lane), band(pi, j, lane), rest(lane).
template <class BranchBody, class BandBody, class RestBody>
nn::TaskGraph build_pipeline_graph(const PatchPlan& plan,
                                   std::span<const PipelinedTailLayer> bands,
                                   std::span<const std::int64_t> costs,
                                   int workers, BranchBody branch_body,
                                   BandBody band_body, RestBody rest_body) {
  nn::TaskGraph graph;
  const int grid_rows = plan.spec.grid_rows;
  const int grid_cols = plan.spec.grid_cols;
  const int per_row = chunks_per_grid_row(plan, workers);
  std::vector<std::vector<int>> row_tasks(
      static_cast<std::size_t>(grid_rows));
  for (int r = 0; r < grid_rows; ++r) {
    const auto ranges = weighted_chunks(
        costs.subspan(static_cast<std::size_t>(r * grid_cols),
                      static_cast<std::size_t>(grid_cols)),
        per_row);
    for (const nn::IndexRange& range : ranges) {
      const std::int64_t b0 = r * grid_cols + range.begin;
      const std::int64_t b1 = r * grid_cols + range.end;
      row_tasks[static_cast<std::size_t>(r)].push_back(
          graph.add([branch_body, b0, b1](int lane) {
            for (std::int64_t b = b0; b < b1; ++b) branch_body(b, lane);
          }));
    }
  }
  std::vector<std::vector<int>> band_tasks(bands.size());
  for (std::size_t pi = 0; pi < bands.size(); ++pi) {
    const PipelinedTailLayer& pl = bands[pi];
    band_tasks[pi].resize(pl.bands.size());
    for (std::size_t j = 0; j < pl.bands.size(); ++j) {
      const int task = graph.add(
          [band_body, pi, j](int lane) { band_body(pi, j, lane); });
      band_tasks[pi][j] = task;
      for (const int r : pl.grid_row_deps[j]) {
        for (const int t : row_tasks[static_cast<std::size_t>(r)]) {
          graph.depend(task, t);
        }
      }
      for (const auto& [qi, k] : pl.band_deps[j]) {
        graph.depend(task, band_tasks[static_cast<std::size_t>(qi)]
                               [static_cast<std::size_t>(k)]);
      }
    }
  }
  // The join: everything the row bands could not cover (global pools, the
  // classifier head) runs once, after every branch and band retired.
  const int join_preds = graph.size();
  const int join = graph.add([rest_body](int lane) { rest_body(lane); });
  for (int t = 0; t < join_preds; ++t) graph.depend(join, t);
  return graph;
}

// Clears one frame's change-propagation flags and counters. On the priming
// frame (`force_all_dirty`) every grid row starts dirty instead: the
// arena's initial bytes are not a valid previous frame, so a first-frame
// merge that happens to match them (all-zero quant tiles over a fresh
// zeroed buffer) must not suppress the bands downstream of it.
void reset_stream_frame(StreamState& state, int grid_rows, int total_bands,
                        bool force_all_dirty) {
  const char row_init = force_all_dirty ? 1 : 0;
  for (int r = 0; r < grid_rows; ++r) {
    state.row_changed[static_cast<std::size_t>(r)].store(
        row_init, std::memory_order_relaxed);
  }
  for (int i = 0; i < total_bands; ++i) {
    state.band_changed[static_cast<std::size_t>(i)].store(
        0, std::memory_order_relaxed);
  }
  state.any_changed.store(row_init, std::memory_order_relaxed);
  state.branches_run.store(0, std::memory_order_relaxed);
  state.bands_run.store(0, std::memory_order_relaxed);
}

int total_band_count(std::span<const PipelinedTailLayer> pipeline) {
  int total = 0;
  for (const PipelinedTailLayer& pl : pipeline) {
    total += static_cast<int>(pl.bands.size());
  }
  return total;
}

// Builds the row-banded pipeline prefix for the tail of `plan`: the
// maximal run of tail layers after the cut that are row-splittable
// (windowed, pooling, element-wise or concat ops), each split into
// `bands_per_layer` row bands (clamped to the layer's height), with
// dependencies resolved through patch::receptive_field.
std::vector<PipelinedTailLayer> build_pipelined_tail(
    const nn::Graph& g, const PatchPlan& plan, int bands_per_layer) {
  QMCU_REQUIRE(bands_per_layer >= 1, "need at least one band per layer");
  const int split = plan.spec.split_layer;
  const int grid_rows = plan.spec.grid_rows;
  const int grid_cols = plan.spec.grid_cols;

  // The assembled-map row interval each grid row's branches merge; every
  // branch in a grid row shares its y tile (row-major branch order).
  std::vector<Interval> merged_rows(static_cast<std::size_t>(grid_rows));
  for (int r = 0; r < grid_rows; ++r) {
    merged_rows[static_cast<std::size_t>(r)] =
        plan.branches[static_cast<std::size_t>(r * grid_cols)]
            .steps.back()
            .out_region.y;
  }

  std::vector<PipelinedTailLayer> prefix;
  std::vector<int> prefix_index(static_cast<std::size_t>(g.size()), -1);
  for (int id = split + 1; id < g.size(); ++id) {
    const nn::Layer& l = g.layer(id);
    const bool bandable = l.kind == nn::OpKind::Conv2D ||
                          l.kind == nn::OpKind::DepthwiseConv2D ||
                          l.kind == nn::OpKind::MaxPool ||
                          l.kind == nn::OpKind::AvgPool ||
                          l.kind == nn::OpKind::Add ||
                          l.kind == nn::OpKind::Concat;
    if (!bandable) break;
    bool inputs_banded = true;
    for (const int in : l.inputs) {
      if (in != split && prefix_index[static_cast<std::size_t>(in)] < 0) {
        inputs_banded = false;
        break;
      }
    }
    if (!inputs_banded) break;

    PipelinedTailLayer pl;
    pl.layer_id = id;
    const nn::TensorShape& os = g.shape(id);
    // A band of fewer rows than this costs more in scheduling than its
    // kernel work returns, so small maps get fewer bands (down to one —
    // still a task, so the layer overlaps whatever it does not depend on).
    constexpr int kMinRowsPerBand = 4;
    const int bands = std::clamp(
        std::min(bands_per_layer, os.h / kMinRowsPerBand), 1, os.h);
    pl.bands.reserve(static_cast<std::size_t>(bands));
    for (int j = 0; j < bands; ++j) {
      pl.bands.push_back({j * os.h / bands, (j + 1) * os.h / bands});
    }
    pl.grid_row_deps.resize(static_cast<std::size_t>(bands));
    pl.band_deps.resize(static_cast<std::size_t>(bands));
    for (int j = 0; j < bands; ++j) {
      const Region out_region{pl.bands[static_cast<std::size_t>(j)],
                              {0, os.w}};
      for (const int in : l.inputs) {
        const nn::TensorShape& is = g.shape(in);
        const Interval need =
            clamp(required_input_region(l, is, out_region).y, 0, is.h);
        if (need.empty()) continue;
        if (in == split) {
          for (int r = 0; r < grid_rows; ++r) {
            if (rows_overlap(merged_rows[static_cast<std::size_t>(r)],
                             need)) {
              pl.grid_row_deps[static_cast<std::size_t>(j)].push_back(r);
            }
          }
        } else {
          const int pi = prefix_index[static_cast<std::size_t>(in)];
          const PipelinedTailLayer& producer =
              prefix[static_cast<std::size_t>(pi)];
          for (int k = 0; k < static_cast<int>(producer.bands.size()); ++k) {
            if (rows_overlap(producer.bands[static_cast<std::size_t>(k)],
                             need)) {
              pl.band_deps[static_cast<std::size_t>(j)].push_back({pi, k});
            }
          }
        }
      }
    }
    prefix_index[static_cast<std::size_t>(id)] =
        static_cast<int>(prefix.size());
    prefix.push_back(std::move(pl));
  }
  return prefix;
}

}  // namespace

std::vector<std::vector<std::vector<std::int32_t>>> build_branch_bias(
    const nn::Graph& g, const PatchPlan& plan,
    std::span<const BranchQuantConfig> branch_cfgs,
    const nn::QuantizedParameters& params) {
  std::vector<std::vector<std::vector<std::int32_t>>> branch_bias;
  branch_bias.resize(branch_cfgs.size());
  for (std::size_t b = 0; b < branch_cfgs.size(); ++b) {
    const PatchBranch& branch = plan.branches[b];
    branch_bias[b].resize(branch.steps.size());
    for (std::size_t s = 0; s < branch.steps.size(); ++s) {
      const int id = branch.steps[s].layer_id;
      const nn::Layer& l = g.layer(id);
      if (!nn::is_mac_op(l.kind) || g.bias(id).empty()) continue;
      const int p = branch.step_of(l.inputs[0]);
      QMCU_ENSURE(p >= 0, "MAC step without in-branch producer");
      branch_bias[b][s] = nn::ops::quantize_bias(
          g.bias(id),
          branch_cfgs[b].per_step[static_cast<std::size_t>(p)].scale,
          params.weights[static_cast<std::size_t>(id)].params.scale);
    }
  }
  return branch_bias;
}

// --- construction --------------------------------------------------------

CompiledPatchQuantModel::CompiledPatchQuantModel(
    const nn::Graph& g, PatchPlan plan, nn::ActivationQuantConfig cfg,
    std::vector<BranchQuantConfig> branch_cfgs, nn::ops::KernelTier tier,
    std::shared_ptr<const nn::QuantizedParameters> params)
    : CompiledPatchQuantModel(g, std::move(plan), std::move(cfg),
                              std::move(branch_cfgs), std::move(params),
                              PrecompiledPatchParts{}, tier) {}

CompiledPatchQuantModel::CompiledPatchQuantModel(
    const nn::Graph& g, PatchPlan plan, nn::ActivationQuantConfig cfg,
    std::vector<BranchQuantConfig> branch_cfgs,
    std::shared_ptr<const nn::QuantizedParameters> params,
    PrecompiledPatchParts parts, nn::ops::KernelTier tier)
    : graph_(&g),
      plan_(std::move(plan)),
      cfg_(std::move(cfg)),
      effective_(nn::effective_output_params(g, cfg_)),
      branch_cfgs_(std::move(branch_cfgs)),
      params_(params ? std::move(params)
                     : nn::QuantizedParameters::build_shared(g, cfg_)),
      bundle_(std::move(parts.kernels)),
      self_(tier) {
  compile(g, std::move(parts.branch_bias));
}

void CompiledPatchQuantModel::compile(
    const nn::Graph& g,
    std::vector<std::vector<std::vector<std::int32_t>>> bias) {
  QMCU_REQUIRE(!plan_.branches.empty(), "plan has no branches");
  if (!branch_cfgs_.empty()) {
    QMCU_REQUIRE(branch_cfgs_.size() == plan_.branches.size(),
                 "branch configs must cover every branch");
    for (std::size_t b = 0; b < branch_cfgs_.size(); ++b) {
      QMCU_REQUIRE(branch_cfgs_[b].per_step.size() ==
                       plan_.branches[b].steps.size(),
                   "branch config must cover every step");
    }
    if (bias.empty()) {
      branch_bias_ = build_branch_bias(g, plan_, branch_cfgs_, *params_);
    } else {
      // Artifact-supplied biases (the graph may be topology-only, so the
      // float-bias rescale that build_branch_bias runs is not available).
      // The kernels read a step's bias for every output channel, so each
      // must be as long as the shared bias of its layer (0 or channels).
      QMCU_REQUIRE(bias.size() == plan_.branches.size(),
                   "precomputed branch bias must cover every branch");
      for (std::size_t b = 0; b < bias.size(); ++b) {
        const PatchBranch& branch = plan_.branches[b];
        QMCU_REQUIRE(bias[b].size() == branch.steps.size(),
                     "precomputed branch bias must cover every step");
        for (std::size_t s = 0; s < bias[b].size(); ++s) {
          QMCU_REQUIRE(
              bias[b][s].size() ==
                  params_->bias[static_cast<std::size_t>(
                                    branch.steps[s].layer_id)]
                      .size(),
              "precomputed branch bias length does not match its layer");
        }
      }
      branch_bias_ = std::move(bias);
    }
  }
  // AvgPool reciprocal tables for every window size the graph uses —
  // built now so the run path (possibly many workers at once) only reads.
  for (int id = 0; id < g.size(); ++id) {
    const nn::Layer& l = g.layer(id);
    if (l.kind != nn::OpKind::AvgPool) continue;
    const int count = l.kernel_h * l.kernel_w;
    pool_tables_.emplace(count, nn::ops::AvgPoolMultipliers(count));
  }

  if (bundle_ != nullptr) bundle_->apply(self_.backend);
  // A branch step's slot holds its map as stored: packed rows at sub-byte
  // widths (PackedMap::storage_bytes), one byte per element at int8.
  PatchTimeline t = build_timeline(
      g, plan_, [&](int bi, int s, const nn::TensorShape& shape) {
        return PackedMap::storage_bytes(shape, stored_params(bi, s).bits);
      });
  num_steps_ = t.num_steps;
  assembled_slot_ = t.assembled_index;
  // Quantized full input, cropped by every branch: live across the whole
  // branch phase.
  input_slot_ = static_cast<int>(t.requests.size());
  t.requests.push_back({g.shape(g.inputs().front()).elements(), 0,
                        std::max(num_steps_ - 1, 0)});
  aplan_ = nn::ArenaPlanner().plan(t.requests);
  // Parallel layout inputs: branch-step slots become the per-worker slice,
  // everything else the shared region.
  slice_requests_.assign(t.requests.begin(),
                         t.requests.begin() + num_steps_);
  shared_requests_.assign(t.requests.begin() + num_steps_, t.requests.end());
  // Pipelined dataflow structure: row-banded tail prefix (band count tied
  // to the patch grid's row granularity), branch pricing for cost-weighted
  // task chunking, and the widening horizon for plan_pipelined.
  pipeline_ =
      build_pipelined_tail(g, plan_, std::max(2, plan_.spec.grid_rows));
  branch_costs_ = branch_costs(plan_);
  pipeline_horizon_ = num_steps_ + static_cast<int>(pipeline_.size()) - 1;
}

// --- quantization tables ---------------------------------------------------

const nn::QuantParams& CompiledPatchQuantModel::step_params(int branch,
                                                            int step) const {
  if (!branch_cfgs_.empty()) {
    return branch_cfgs_[static_cast<std::size_t>(branch)]
        .per_step[static_cast<std::size_t>(step)];
  }
  return effective_[static_cast<std::size_t>(
      plan_.branches[static_cast<std::size_t>(branch)]
          .steps[static_cast<std::size_t>(step)]
          .layer_id)];
}

const nn::QuantParams& CompiledPatchQuantModel::stored_params(int branch,
                                                              int step) const {
  const PatchBranch& b = plan_.branches[static_cast<std::size_t>(branch)];
  for (;;) {
    const nn::Layer& l =
        graph_->layer(b.steps[static_cast<std::size_t>(step)].layer_id);
    if (l.kind != nn::OpKind::MaxPool && l.kind != nn::OpKind::AvgPool) break;
    const int p = b.step_of(l.inputs[0]);
    QMCU_ENSURE(p >= 0 && p < step, "producer step missing from branch");
    step = p;
  }
  return step_params(branch, step);
}

const nn::ops::AvgPoolMultipliers* CompiledPatchQuantModel::pool_table(
    const nn::Layer& l) const {
  if (l.kind != nn::OpKind::AvgPool) return nullptr;
  const auto it = pool_tables_.find(l.kernel_h * l.kernel_w);
  QMCU_ENSURE(it != pool_tables_.end(),
              "AvgPool window missing from the precomputed tables");
  return &it->second;
}

void CompiledPatchQuantModel::prepare_lane(
    nn::ops::KernelBackend& backend) const {
  // Artifact path: adopt the precomputed panels first, so the prepack
  // pass below is a no-op for everything the artifact baked.
  if (bundle_ != nullptr) bundle_->apply(backend);
  // Pre-pack the conv and depthwise panels any task on this lane may need
  // — stage layers for branch tasks, tail layers for row bands and the
  // join — so a lane's first run pays no packing cost (construction-time
  // work, exempt from the affinity guard). Gated on the quantized params,
  // not the graph: the artifact path loads a topology-only graph.
  const nn::Graph& g = *graph_;
  const auto prepack = [&](int layer_id) {
    backend.prepack(g.layer(layer_id),
                    params_->weights[static_cast<std::size_t>(layer_id)].data);
  };
  for (const BranchStep& step : plan_.branches.front().steps) {
    prepack(step.layer_id);
  }
  for (int id = plan_.spec.split_layer + 1; id < g.size(); ++id) {
    prepack(id);
  }
}

void CompiledPatchQuantModel::observe() const {
  if (!stats_hook_) return;
  for (std::size_t id = static_cast<std::size_t>(plan_.spec.split_layer);
       id < tail_memo_.size(); ++id) {
    stats_hook_(static_cast<int>(id), tail_memo_[id]);
  }
}

// --- arenas and lanes ------------------------------------------------------

const nn::ParallelArenaPlan& CompiledPatchQuantModel::pipelined_plan(
    int num_workers) const {
  auto it = pipelined_pplans_.find(num_workers);
  if (it == pipelined_pplans_.end()) {
    it = pipelined_pplans_
             .emplace(num_workers, nn::ArenaPlanner().plan_pipelined(
                                       slice_requests_, shared_requests_,
                                       num_workers, pipeline_horizon_))
             .first;
  }
  return it->second;
}

const nn::ParallelArenaPlan& CompiledPatchQuantModel::streaming_plan(
    int num_workers) const {
  auto it = streaming_pplans_.find(num_workers);
  if (it == streaming_pplans_.end()) {
    it = streaming_pplans_
             .emplace(num_workers,
                      nn::ArenaPlanner().plan_parallel(
                          slice_requests_, widen_shared(shared_requests_),
                          num_workers))
             .first;
  }
  return it->second;
}

std::span<std::uint8_t> CompiledPatchQuantModel::bind_run_arena(
    std::int64_t need, nn::ArenaSlab::Lease& lease) const {
  std::span<std::uint8_t> arena;
  if (arena_source_ != nullptr) {
    lease = arena_source_->acquire(need);
    arena = lease.bytes();
  } else {
    if (static_cast<std::int64_t>(arena_.size()) < need) {
      arena_.resize(static_cast<std::size_t>(need));
    }
    arena = {arena_.data(), arena_.size()};
  }
  nn::check_arena(arena, need, alignof(std::int8_t));
  return arena;
}

CompiledPatchQuantModel::WorkerCtx& CompiledPatchQuantModel::worker_ctx(
    int lane) const {
  while (static_cast<int>(workers_.size()) <= lane) {
    auto ctx = std::make_unique<WorkerCtx>(self_.backend.tier());
    prepare_lane(ctx->backend);
    workers_.push_back(std::move(ctx));
  }
  return *workers_[static_cast<std::size_t>(lane)];
}

std::int64_t CompiledPatchQuantModel::scratch_bytes() const {
  std::int64_t total = static_cast<std::int64_t>(
      self_.crops.footprint_bytes() + self_.backend.arena().footprint_bytes());
  for (const auto& w : workers_) {
    total += static_cast<std::int64_t>(w->crops.footprint_bytes() +
                                       w->backend.arena().footprint_bytes());
  }
  return total;
}

void CompiledPatchQuantModel::check_input(const nn::Tensor& input) const {
  QMCU_REQUIRE(input.shape() == graph_->shape(graph_->inputs().front()),
               "input shape does not match graph input");
}

// --- one run ---------------------------------------------------------------

void CompiledPatchQuantModel::stage(const nn::Tensor& input,
                                    std::uint8_t* base,
                                    std::span<const nn::ArenaSlot> slots,
                                    int first, std::int64_t& measured) const {
  const nn::Graph& g = *graph_;
  const int split = plan_.spec.split_layer;
  const auto slot = [&](int request) -> const nn::ArenaSlot& {
    return slots[static_cast<std::size_t>(request - first)];
  };
  const auto bind_layer = [&](int id, int request) {
    return bind_q_slot(base, slot(request), g.shape(id),
                       effective_[static_cast<std::size_t>(id)], measured);
  };

  // Quantize the input once into its slot; branches crop it. A primed
  // stream retains the previous frame's codes, so only its changed spans
  // need fresh ones.
  const int in_id = g.inputs().front();
  const nn::TensorShape& s = g.shape(in_id);
  input_ = bind_q_slot(base, slot(input_slot_), s,
                       cfg_.params[static_cast<std::size_t>(in_id)], measured);
  const nn::QuantParams& p = input_.params();
  const float* src = input.data().data();
  std::int8_t* dst = input_.data().data();
  if (run_stream_ != nullptr && run_stream_->primed &&
      !run_stream_->changed_rows.empty()) {
    for (int y = 0; y < s.h; ++y) {
      const Interval& span =
          run_stream_->changed_rows[static_cast<std::size_t>(y)];
      const std::int64_t at = nn::flat_index(s, y, span.begin, 0);
      nn::quantize_row(src + at, nn::flat_index(s, y, span.end, 0) - at, p,
                       dst + at);
    }
  } else {
    nn::quantize_row(src, s.elements(), p, dst);
  }

  tail_memo_.resize(static_cast<std::size_t>(g.size()));
  tail_memo_[static_cast<std::size_t>(split)] =
      bind_layer(split, assembled_slot_);
  for (int id = split + 1; id < g.size(); ++id) {
    tail_memo_[static_cast<std::size_t>(id)] =
        bind_layer(id, num_steps_ + (id - split - 1));
  }
}

void CompiledPatchQuantModel::exec_branch(
    int bi, std::uint8_t* base, std::span<const nn::ArenaSlot> slots,
    WorkerCtx& ctx, bool* merge_changed) const {
  const nn::Graph& g = *graph_;
  const PatchBranch& branch = plan_.branches[static_cast<std::size_t>(bi)];
  const std::span<PackedMap> views(ctx.step_views);
  for (int s = 0; s < num_steps_; ++s) {
    const BranchStep& step = branch.steps[static_cast<std::size_t>(s)];
    const nn::TensorShape shape =
        region_shape(step, g.shape(step.layer_id).c);
    const nn::ArenaSlot& slot = slots[static_cast<std::size_t>(s)];
    const PackedMap out =
        bind_packed_map(base + slot.offset, shape, stored_params(bi, s));
    QMCU_ENSURE(out.bytes() <= slot.size, "bound map exceeds its arena slot");
    ctx.measured = std::max(ctx.measured, slot.offset + out.bytes());
    const int rows = band_rows(g, branch, s, std::span<const PackedMap>(views),
                               out, shape);
    for (int y = step.out_region.y.begin; y < step.out_region.y.end;
         y += rows) {
      exec_step_band(bi, s,
                     {{y, std::min(y + rows, step.out_region.y.end)},
                      step.out_region.x},
                     views, out, ctx);
    }
    views[static_cast<std::size_t>(s)] = out;
  }
  const BranchStep& last = branch.steps.back();
  QMCU_ENSURE(last.layer_id == plan_.spec.split_layer,
              "branch must end at the cut layer");
  merge_tile(ctx.backend, views[static_cast<std::size_t>(num_steps_ - 1)],
             last.out_region,
             tail_memo_[static_cast<std::size_t>(plan_.spec.split_layer)],
             merge_changed);
}

void CompiledPatchQuantModel::exec_step_band(int bi, int s,
                                             const Region& band,
                                             std::span<PackedMap> views,
                                             const PackedMap& out,
                                             WorkerCtx& ctx) const {
  const nn::Graph& g = *graph_;
  const PatchBranch& branch = plan_.branches[static_cast<std::size_t>(bi)];
  const BranchStep& step = branch.steps[static_cast<std::size_t>(s)];
  const nn::Layer& layer = g.layer(step.layer_id);
  const auto* simd = ctx.backend.simd_kernels();
  const int y0 = band.y.begin - step.out_region.y.begin;

  const auto producer = [&](int input_id) -> int {
    const int p = branch.step_of(input_id);
    QMCU_ENSURE(p >= 0 && p < s, "producer step missing from branch");
    return p;
  };
  const auto producer_region = [&](int input_id) -> const Region& {
    return branch.steps[static_cast<std::size_t>(producer(input_id))]
        .out_region;
  };
  // The window of operand `input_id` the band reads: unclamped for windowed
  // ops (the crop materialises their zero padding, so the kernel runs
  // pad-free; a whole-region band reads step.in_region), the in-bounds rows
  // for pools, the band itself otherwise.
  const auto window = [&](int input_id) -> Region {
    const nn::TensorShape& full = g.shape(input_id);
    switch (layer.kind) {
      case nn::OpKind::Conv2D:
      case nn::OpKind::DepthwiseConv2D:
        return required_input_region(layer, full, band);
      case nn::OpKind::MaxPool:
      case nn::OpKind::AvgPool:
        return {clamp(required_input_region(layer, full, band).y, 0, full.h),
                producer_region(input_id).x};
      default:
        return band;
    }
  };

  ctx.crops.reset();
  BandScratch scratch(ctx.crops);
  if (touches_packed(layer, branch, std::span<const PackedMap>(views), out)) {
    std::int64_t bytes =
        out.packed() ? band.area() * g.shape(step.layer_id).c : 0;
    for (const int in : layer.inputs) {
      if (branch.step_of(in) >= 0) bytes += window(in).area() * g.shape(in).c;
    }
    scratch.reserve_i8(bytes);
  }
  const auto producer_input = [&](int input_id) {
    return step_input(views[static_cast<std::size_t>(producer(input_id))],
                      producer_region(input_id), window(input_id),
                      g.shape(input_id), out, scratch, simd);
  };
  nn::QTensor o = band_target(out, y0, band.y.size(), scratch);

  switch (layer.kind) {
    case nn::OpKind::Input:
      input_into(ctx.backend, band, o);
      break;
    case nn::OpKind::Conv2D:
    case nn::OpKind::DepthwiseConv2D: {
      const nn::QTensor padded = producer_input(layer.inputs[0]);
      nn::Layer local = layer;
      local.pad_h = local.pad_w = 0;
      windowed_into(ctx.backend, padded, local, step.layer_id, bi, s, o);
      break;
    }
    case nn::OpKind::MaxPool:
    case nn::OpKind::AvgPool: {
      const int in = layer.inputs[0];
      const auto [have, avail] =
          pool_input(views[static_cast<std::size_t>(producer(in))],
                     producer_region(in), window(in).y, g.shape(in), scratch,
                     simd);
      pool_region_q_into(have, avail, layer, band, g.shape(in),
                         pool_table(layer), o);
      break;
    }
    case nn::OpKind::Add: {
      const nn::QTensor a = producer_input(layer.inputs[0]);
      const nn::QTensor b = producer_input(layer.inputs[1]);
      ctx.backend.add_into(a, b, layer.act, o);
      break;
    }
    case nn::OpKind::Concat: {
      std::vector<nn::QTensor> cropped;
      cropped.reserve(layer.inputs.size());
      for (int in : layer.inputs) cropped.push_back(producer_input(in));
      std::vector<const nn::QTensor*> ptrs;
      ptrs.reserve(cropped.size());
      for (const nn::QTensor& t : cropped) ptrs.push_back(&t);
      ctx.backend.concat_into(ptrs, o);
      break;
    }
    default:
      QMCU_REQUIRE(false, "op kind not supported inside a patch stage: " +
                              std::string(nn::to_string(layer.kind)));
  }
  store_band(out, y0, o);
}

void CompiledPatchQuantModel::input_into(nn::ops::KernelBackend& backend,
                                         const Region& want,
                                         nn::QTensor& out) const {
  // The input patch tile is quantized straight into the branch's params
  // (mixed mode stores it sub-byte, uniform mode at int8): the in-bounds
  // row spans of the staged input go through the slice requantizer, with
  // no intermediate crop.
  const nn::TensorShape& full = input_.shape();
  const nn::QuantParams& from = input_.params();
  const nn::QuantParams& to = out.params();
  if (from == to) {
    crop_from_region_q_into(input_, full_region(full), want, full, out);
    return;
  }
  // Padding is real 0 — the input zero point — requantized: centered 0
  // rescales to 0, leaving the clamped target zero point.
  const auto pad = static_cast<std::int8_t>(
      nn::ops::clamp_to(to.zero_point, to.qmin(), to.qmax()));
  crop_rows(input_.data().data(), full_region(full), want, full, full.c, pad,
            out.data().data(),
            nn::ops::simd::RowRequantizer(from, to, backend.simd_kernels()));
}

void CompiledPatchQuantModel::windowed_into(nn::ops::KernelBackend& backend,
                                            const nn::QTensor& in,
                                            const nn::Layer& local,
                                            int layer_id, int bi, int s,
                                            nn::QTensor& out) const {
  const std::span<const std::int32_t> bias =
      bi >= 0 && !branch_cfgs_.empty()
          ? std::span<const std::int32_t>(
                branch_bias_[static_cast<std::size_t>(bi)]
                            [static_cast<std::size_t>(s)])
          : std::span<const std::int32_t>(
                params_->bias[static_cast<std::size_t>(layer_id)]);
  const auto& w = params_->weights[static_cast<std::size_t>(layer_id)];
  if (local.kind == nn::OpKind::Conv2D) {
    backend.conv2d_into(in, local, w.data, w.params, bias, out);
  } else {
    backend.depthwise_conv2d_into(in, local, w.data, w.params, bias, out);
  }
}

void CompiledPatchQuantModel::exec_tail_band(int layer_id,
                                             const Interval& rows,
                                             WorkerCtx& ctx) const {
  const nn::Graph& g = *graph_;
  const nn::Layer& l = g.layer(layer_id);
  const nn::TensorShape& os = g.shape(layer_id);
  const Region out_region{rows, {0, os.w}};
  const auto memo = [&](int id) -> nn::QTensor& {
    return tail_memo_[static_cast<std::size_t>(id)];
  };
  nn::QTensor out = row_view(memo(layer_id), rows);
  ctx.crops.reset();
  switch (l.kind) {
    case nn::OpKind::Conv2D:
    case nn::OpKind::DepthwiseConv2D: {
      // Same construction as the branch steps: the (unclamped) input window
      // with zero fill — a row view when it is in bounds and full width —
      // and the kernel run pad-free, bit-identical to the padded full-map
      // call, proven by the patch/layer parity tests.
      const nn::TensorShape& is = g.shape(l.inputs[0]);
      BandScratch crops(ctx.crops);
      const nn::QTensor in = step_input(
          memo(l.inputs[0]), full_region(is),
          required_input_region(l, is, out_region), is, byte_range(out),
          crops);
      nn::Layer local = l;
      local.pad_h = local.pad_w = 0;
      windowed_into(ctx.backend, in, local, layer_id, -1, -1, out);
      break;
    }
    case nn::OpKind::MaxPool:
    case nn::OpKind::AvgPool: {
      const nn::TensorShape& is = g.shape(l.inputs[0]);
      pool_region_q_into(memo(l.inputs[0]), full_region(is), l, out_region,
                         is, pool_table(l), out);
      break;
    }
    case nn::OpKind::Add: {
      // Element-wise: the band reads exactly its own rows of both inputs —
      // pure views, no copy.
      const nn::QTensor a = row_view(memo(l.inputs[0]), rows);
      const nn::QTensor b = row_view(memo(l.inputs[1]), rows);
      ctx.backend.add_into(a, b, l.act, out);
      break;
    }
    case nn::OpKind::Concat: {
      std::vector<nn::QTensor> views;
      views.reserve(l.inputs.size());
      for (const int in : l.inputs) views.push_back(row_view(memo(in), rows));
      std::vector<const nn::QTensor*> ptrs;
      ptrs.reserve(views.size());
      for (const nn::QTensor& t : views) ptrs.push_back(&t);
      ctx.backend.concat_into(ptrs, out);
      break;
    }
    default:
      QMCU_ENSURE(false, "op kind is not row-bandable: " +
                             std::string(nn::to_string(l.kind)));
  }
}

void CompiledPatchQuantModel::run_tail_layers(
    int first_id, nn::ops::KernelBackend& backend) const {
  for (int id = first_id; id < graph_->size(); ++id) {
    nn::run_layer_q_into(*graph_, id, tail_memo_, *params_, backend,
                         tail_memo_[static_cast<std::size_t>(id)]);
  }
}

nn::QTensor CompiledPatchQuantModel::run(const nn::Tensor& input) const {
  check_input(input);
  nn::ArenaSlab::Lease lease;
  const std::span<std::uint8_t> arena =
      bind_run_arena(aplan_.peak_bytes, lease);
  // Compiled runs are per-run thread-affine: hand this run's context to
  // the calling thread.
  self_.begin_run(num_steps_);
  stage(input, arena.data(), aplan_.slots, 0, self_.measured);
  const auto slots = std::span<const nn::ArenaSlot>(aplan_.slots)
                         .first(static_cast<std::size_t>(num_steps_));
  for (int b = 0; b < static_cast<int>(plan_.branches.size()); ++b) {
    exec_branch(b, arena.data(), slots, self_);
  }
  run_tail_layers(plan_.spec.split_layer + 1, self_.backend);
  measured_ = self_.measured;
  observe();
  return tail_memo_[static_cast<std::size_t>(graph_->output())];
}

// --- the dataflow graph ----------------------------------------------------

void CompiledPatchQuantModel::branch_task(
    std::int64_t b, WorkerCtx& ctx, std::uint8_t* slice,
    std::span<const nn::ArenaSlot> slots) const {
  // Streaming frames route through the same code: clean branches return
  // immediately, dirty ones report whether their merge changed any
  // retained byte.
  StreamState* stream = run_stream_;
  if (stream != nullptr && !stream->branch_dirty[static_cast<std::size_t>(b)]) {
    return;
  }
  bool changed = false;
  exec_branch(static_cast<int>(b), slice, slots, ctx,
              stream != nullptr ? &changed : nullptr);
  if (stream != nullptr) stream_mark_branch(*stream, b, changed);
  if (branch_hook_) branch_hook_(static_cast<int>(b));
}

void CompiledPatchQuantModel::band_task(std::size_t pi, std::size_t j,
                                        WorkerCtx& ctx) const {
  StreamState* stream = run_stream_;
  if (stream != nullptr && !stream_band_needed(*stream, pi, j)) return;
  exec_tail_band(pipeline_[pi].layer_id, pipeline_[pi].bands[j], ctx);
  if (stream != nullptr) stream_mark_band(*stream, pi, j);
}

void CompiledPatchQuantModel::rest_task(WorkerCtx& ctx) const {
  if (run_stream_ != nullptr && !run_stream_->frame_changed_output()) return;
  run_tail_layers(
      plan_.spec.split_layer + 1 + static_cast<int>(pipeline_.size()),
      ctx.backend);
}

nn::TaskGraph& CompiledPatchQuantModel::pipeline_graph(
    int num_workers) const {
  auto it = pipeline_graphs_.find(num_workers);
  if (it != pipeline_graphs_.end()) return it->second;
  return pipeline_graphs_
      .emplace(num_workers,
               build_pipeline_graph(
                   plan_, pipeline_, branch_costs_, num_workers,
                   [this](std::int64_t b, int lane) {
                     branch_task(b, *workers_[static_cast<std::size_t>(lane)],
                                 run_data_ + run_pplan_->slice_offset(lane),
                                 run_pplan_->slice.slots);
                   },
                   [this](std::size_t pi, std::size_t j, int lane) {
                     band_task(pi, j,
                               *workers_[static_cast<std::size_t>(lane)]);
                   },
                   [this](int lane) {
                     rest_task(*workers_[static_cast<std::size_t>(lane)]);
                   }))
      .first->second;
}

void CompiledPatchQuantModel::run_parallel(const nn::Tensor& input,
                                           nn::WorkerPool* pool,
                                           const nn::ParallelArenaPlan& pplan,
                                           std::uint8_t* data) const {
  const int w = pplan.num_workers;
  std::int64_t shared_measured = 0;
  // Stage this run's state for the cached graph's tasks: arena base and
  // plan, plus every shared view (input, assembled map, all tail layers)
  // bound before dispatch — tasks only read and write through them.
  run_data_ = data;
  run_pplan_ = &pplan;
  stage(input, data + pplan.shared_offset(), pplan.shared.slots, num_steps_,
        shared_measured);
  measured_ = pplan.shared_offset() + shared_measured;
  if (w == 1) {
    // Streaming on one lane: the task bodies in graph order on the
    // calling thread's context.
    self_.begin_run(num_steps_);
    std::uint8_t* const slice = data + pplan.slice_offset(0);
    for (std::size_t b = 0; b < plan_.branches.size(); ++b) {
      branch_task(static_cast<std::int64_t>(b), self_, slice,
                  pplan.slice.slots);
    }
    for (std::size_t pi = 0; pi < pipeline_.size(); ++pi) {
      const std::size_t nb = pipeline_[pi].bands.size();
      std::size_t needed = 0;
      for (std::size_t j = 0; j < nb; ++j) {
        needed += stream_band_needed(*run_stream_, pi, j) ? 1 : 0;
      }
      if (needed == nb) {
        // Every band is dirty: the banded path would pay one halo crop per
        // band for nothing — run the layer whole, exactly like the
        // sequential tail does (bit-identical; the bands exist for
        // multi-worker pipelining, not for single-lane execution).
        const int id = pipeline_[pi].layer_id;
        nn::run_layer_q_into(*graph_, id, tail_memo_, *params_, self_.backend,
                             tail_memo_[static_cast<std::size_t>(id)]);
        for (std::size_t j = 0; j < nb; ++j) {
          stream_mark_band(*run_stream_, pi, j);
        }
        continue;
      }
      for (std::size_t j = 0; j < nb; ++j) band_task(pi, j, self_);
    }
    rest_task(self_);
    measured_ = std::max(measured_, pplan.slice_offset(0) + self_.measured);
    return;
  }
  for (int lane = 0; lane < w; ++lane) worker_ctx(lane).begin_run(num_steps_);
  pool->run_graph(pipeline_graph(w));
  for (int lane = 0; lane < w; ++lane) {
    measured_ = std::max(
        measured_, pplan.slice_offset(lane) +
                       workers_[static_cast<std::size_t>(lane)]->measured);
  }
}

nn::QTensor CompiledPatchQuantModel::run(const nn::Tensor& input,
                                         nn::WorkerPool* pool) const {
  if (pool == nullptr || pool->num_workers() == 1) return run(input);
  check_input(input);
  const nn::ParallelArenaPlan& pplan = pipelined_plan(pool->num_workers());
  nn::ArenaSlab::Lease lease;
  const std::span<std::uint8_t> arena =
      bind_run_arena(pplan.total_bytes(), lease);
  run_parallel(input, pool, pplan, arena.data());
  observe();
  return tail_memo_[static_cast<std::size_t>(graph_->output())];
}

// --- streaming ------------------------------------------------------------

void CompiledPatchQuantModel::prime_stream_state(StreamState& state,
                                                 int workers) const {
  QMCU_REQUIRE(workers >= 1, "streaming needs at least one lane");
  if (state.workers != 0) {
    QMCU_REQUIRE(state.workers == workers,
                 "stream state is pinned to its first frame's worker count");
  }
  state.workers = workers;
  state.branch_dirty.resize(plan_.branches.size(), 1);
  if (state.row_changed == nullptr) {
    state.row_changed = std::make_unique<std::atomic<char>[]>(
        static_cast<std::size_t>(plan_.spec.grid_rows));
    state.band_offset.resize(pipeline_.size());
    int total = 0;
    for (std::size_t pi = 0; pi < pipeline_.size(); ++pi) {
      state.band_offset[pi] = total;
      total += static_cast<int>(pipeline_[pi].bands.size());
    }
    state.band_changed = std::make_unique<std::atomic<char>[]>(
        static_cast<std::size_t>(std::max(total, 1)));
  }
}

std::span<std::uint8_t> CompiledPatchQuantModel::bind_stream_arena(
    std::int64_t need, StreamState& state) const {
  std::span<std::uint8_t> arena;
  if (arena_source_ != nullptr) {
    if (state.lease.empty() ||
        static_cast<std::int64_t>(state.lease.bytes().size()) < need) {
      QMCU_ENSURE(!state.primed,
                  "streaming arena cannot be re-acquired once primed");
      state.lease = arena_source_->acquire(need);
    }
    arena = state.lease.bytes();
  } else {
    if (static_cast<std::int64_t>(state.owned.size()) < need) {
      QMCU_ENSURE(!state.primed, "streaming arena cannot grow once primed");
      state.owned.resize(static_cast<std::size_t>(need));
    }
    arena = {state.owned.data(), state.owned.size()};
  }
  nn::check_arena(arena, need, alignof(std::int8_t));
  return arena;
}

bool CompiledPatchQuantModel::stream_band_needed(const StreamState& state,
                                                 std::size_t pi,
                                                 std::size_t j) const {
  const PipelinedTailLayer& pl = pipeline_[pi];
  for (const int r : pl.grid_row_deps[j]) {
    if (state.row_changed[static_cast<std::size_t>(r)].load(
            std::memory_order_relaxed) != 0) {
      return true;
    }
  }
  for (const auto& [qi, k] : pl.band_deps[j]) {
    if (state
            .band_changed[static_cast<std::size_t>(
                state.band_offset[static_cast<std::size_t>(qi)] + k)]
            .load(std::memory_order_relaxed) != 0) {
      return true;
    }
  }
  return false;
}

void CompiledPatchQuantModel::stream_mark_branch(StreamState& state,
                                                 std::int64_t b,
                                                 bool changed) const {
  state.branches_run.fetch_add(1, std::memory_order_relaxed);
  if (!changed) return;
  state.row_changed[static_cast<std::size_t>(b / plan_.spec.grid_cols)].store(
      1, std::memory_order_relaxed);
  state.any_changed.store(1, std::memory_order_relaxed);
}

void CompiledPatchQuantModel::stream_mark_band(StreamState& state,
                                               std::size_t pi,
                                               std::size_t j) const {
  state.bands_run.fetch_add(1, std::memory_order_relaxed);
  state
      .band_changed[static_cast<std::size_t>(state.band_offset[pi]) + j]
      .store(1, std::memory_order_relaxed);
}

nn::QTensor CompiledPatchQuantModel::run_streaming(const nn::Tensor& input,
                                                   nn::WorkerPool* pool,
                                                   StreamState& state) const {
  check_input(input);
  if (!state.changed_rows.empty()) {
    QMCU_REQUIRE(static_cast<int>(state.changed_rows.size()) ==
                     input.shape().h,
                 "changed_rows must hold one span per input row");
    for (const Interval& span : state.changed_rows) {
      QMCU_REQUIRE(span.begin >= 0 && span.end <= input.shape().w,
                   "changed_rows span outside the input row");
    }
  }
  const int w = pool == nullptr ? 1 : pool->num_workers();
  prime_stream_state(state, w);
  const nn::ParallelArenaPlan& pplan = streaming_plan(w);
  const std::span<std::uint8_t> arena =
      bind_stream_arena(pplan.total_bytes(), state);

  // First frame: nothing retained yet, every branch runs.
  if (!state.primed) {
    std::fill(state.branch_dirty.begin(), state.branch_dirty.end(),
              std::uint8_t{1});
  }
  reset_stream_frame(state, plan_.spec.grid_rows, total_band_count(pipeline_),
                     !state.primed);

  // Staging re-quantizes the frame's changed spans (the whole frame when
  // the caller gives none) into the retained input slot; a byte-identical
  // float pixel quantizes to a byte-identical code, so clean branches stay
  // clean through this write.
  run_stream_ = &state;
  try {
    run_parallel(input, pool, pplan, arena.data());
  } catch (...) {
    // A failed frame (say, a NaN pixel rejected while staging) may have
    // overwritten part of the retained bytes: forget them, so the next
    // frame runs in full.
    run_stream_ = nullptr;
    state.reset();
    throw;
  }
  run_stream_ = nullptr;
  state.changed_rows.clear();
  state.primed = true;
  observe();
  return tail_memo_[static_cast<std::size_t>(graph_->output())];
}

}  // namespace qmcu::patch
