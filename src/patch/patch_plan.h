// patch_plan.h — patch-based inference planning (MCUNetV2-style).
//
// A PatchSpec names a *cut point* (the last layer executed patch-wise) and a
// patch grid. The plan materialises, for every patch, the dataflow branch
// the paper describes: the exact spatial region of every stage feature map
// that branch must compute, obtained by backward receptive-field
// propagation from the patch's tile of the cut layer's output. Overlap
// between neighbouring branches' regions is the redundant computation
// (plan.redundant_macs()).
//
// Stage layers between two cut points may include residual adds and concats
// (MobileNetV2 blocks); the propagation handles any DAG confined to the
// stage.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/graph.h"
#include "patch/receptive_field.h"

namespace qmcu::patch {

struct PatchSpec {
  int split_layer = -1;  // cut point: last layer id executed patch-wise
  int grid_rows = 2;
  int grid_cols = 2;
};

// One layer's work inside one branch.
struct BranchStep {
  int layer_id = -1;
  Region out_region;  // clamped to the layer's extent; what this branch computes
  Region in_region;   // unclamped requirement on the primary producer
  std::int64_t macs = 0;
  std::int64_t element_ops = 0;
  std::int64_t out_elements = 0;  // out_region.area * channels
};

// The dataflow branch that follows one patch (paper Fig. 1a / Fig. 3).
struct PatchBranch {
  int row = 0;
  int col = 0;
  std::vector<BranchStep> steps;  // stage layers in topological order,
                                  // step 0 is the Input crop
  std::int64_t total_macs = 0;

  // Index into `steps` for a stage layer id, or -1.
  [[nodiscard]] int step_of(int layer_id) const;
};

struct PatchPlan {
  PatchSpec spec;
  std::vector<int> stage_layers;  // ids [0 .. split_layer], topo order
  std::vector<PatchBranch> branches;  // row-major grid order

  std::int64_t stage_macs_layer_based = 0;  // stage cost without patching
  std::int64_t stage_macs_patched = 0;      // sum over branches

  [[nodiscard]] std::int64_t redundant_macs() const {
    return stage_macs_patched - stage_macs_layer_based;
  }
  // Redundancy as a fraction of the un-patched stage cost.
  [[nodiscard]] double redundancy_ratio() const {
    return stage_macs_layer_based == 0
               ? 0.0
               : static_cast<double>(redundant_macs()) /
                     static_cast<double>(stage_macs_layer_based);
  }
  // The disjoint tile of the *input image* owned by branch (row, col) —
  // the branch's crop region minus halo; tiles partition the input.
  [[nodiscard]] Region input_tile(int row, int col,
                                  const nn::TensorShape& input_shape) const;
};

// Last step index (within the branch) whose layer reads step
// `step_index`'s output; `step_index` itself if unconsumed inside the
// branch. This is the branch-local liveness interval the compiled patch
// executor's arena planner places slots over.
int branch_last_use(const nn::Graph& g, const PatchBranch& branch,
                    int step_index);

// Layer ids where the graph may be cut: every consumer edge leaving the
// prefix {0..L} originates at L itself, L's feature map is spatial
// (h, w >= grid), and the prefix contains at least one windowed op.
std::vector<int> valid_cut_points(const nn::Graph& g);

// Builds the full plan. `spec.split_layer` must be a valid cut point and
// the grid must divide into at least 1-pixel tiles.
PatchPlan build_patch_plan(const nn::Graph& g, const PatchSpec& spec);

}  // namespace qmcu::patch
