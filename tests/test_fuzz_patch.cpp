// Randomised topology fuzzing: generate random (but valid) conv networks
// and verify the core invariants hold on all of them —
//   * patch-based int8 inference is bit-identical to layer-based int8;
//   * tiles of every plan partition the cut feature map exactly.
// Hand-written topologies only cover what their author thought of; twenty
// seeded random graphs cover the rest.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "models/weights.h"
#include "nn/memory_planner.h"
#include "nn/rng.h"
#include "patch/compiled_patch_model.h"
#include "quant/calibration.h"

namespace qmcu::patch {
namespace {

// Random chain with occasional residual blocks, pools and concats; always
// ends in GAP + FC so every graph is a valid classifier.
nn::Graph random_graph(std::uint64_t seed) {
  nn::Rng rng(seed);
  nn::Graph g("fuzz_" + std::to_string(seed));
  const int res = 16 + 2 * static_cast<int>(rng.uniform() * 8);  // 16..30
  int x = g.add_input(nn::TensorShape{res, res, 3});
  const int blocks = 3 + static_cast<int>(rng.uniform() * 4);  // 3..6
  for (int b = 0; b < blocks; ++b) {
    if (g.shape(x).h < 4) break;
    const double pick = rng.uniform();
    const auto act = static_cast<nn::Activation>(
        static_cast<int>(rng.uniform() * 3.0));
    const int ch = 4 + 4 * static_cast<int>(rng.uniform() * 3);  // 4..12
    if (pick < 0.35) {
      // plain conv, kernel 1/3/5, stride 1/2
      const int k = 1 + 2 * static_cast<int>(rng.uniform() * 3.0);
      const int s = rng.uniform() < 0.4 ? 2 : 1;
      x = g.add_conv2d(x, ch, k, s, k / 2, act);
    } else if (pick < 0.55) {
      // residual block
      const int c = g.shape(x).c;
      const int a = g.add_conv2d(x, c, 3, 1, 1, act);
      const int bb = g.add_depthwise_conv2d(a, 3, 1, 1, act);
      x = g.add_residual_add(x, bb, nn::Activation::None);
    } else if (pick < 0.7) {
      // two-branch concat
      const int a = g.add_conv2d(x, ch, 1, 1, 0, act);
      const int bb = g.add_conv2d(x, ch, 3, 1, 1, act);
      const std::array<int, 2> ins{a, bb};
      x = g.add_concat(ins);
    } else if (pick < 0.85) {
      x = g.add_max_pool(x, 3, rng.uniform() < 0.5 ? 2 : 1, 1);
    } else {
      x = g.add_depthwise_conv2d(x, 3, rng.uniform() < 0.4 ? 2 : 1, 1, act);
    }
  }
  x = g.add_global_avg_pool(x);
  g.add_fully_connected(x, 5, nn::Activation::None);
  models::init_parameters(g, seed ^ 0xabcdef);
  return g;
}

nn::Tensor random_input(nn::TensorShape s, std::uint64_t seed) {
  nn::Tensor t(s);
  nn::Rng rng(seed);
  for (float& v : t.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

// Pick the deepest cut point that still admits a 2x2 grid.
int pick_cut(const nn::Graph& g) {
  const std::vector<int> cuts = valid_cut_points(g);
  for (auto it = cuts.rbegin(); it != cuts.rend(); ++it) {
    if (g.shape(*it).h >= 2 && g.shape(*it).w >= 2) return *it;
  }
  return -1;
}

class FuzzedTopology : public ::testing::TestWithParam<int> {};

TEST_P(FuzzedTopology, QuantizedPatchInferenceBitExact) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const nn::Graph g = random_graph(seed);
  const int cut = pick_cut(g);
  if (cut < 0) GTEST_SKIP() << "no spatial cut point in this sample";
  const std::vector<nn::Tensor> calib{random_input(g.shape(0), seed + 2)};
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto cfg =
      quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  PatchSpec spec;
  spec.split_layer = cut;
  spec.grid_rows = spec.grid_cols = 2;
  const CompiledPatchQuantModel pexec(g, build_patch_plan(g, spec), cfg);
  const nn::QuantExecutor qexec(g, cfg);
  const nn::Tensor in = random_input(g.shape(0), seed + 3);
  const nn::QTensor a = pexec.run(in);
  const nn::QTensor b = qexec.run(in);
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(static_cast<int>(a.data()[i]), static_cast<int>(b.data()[i]))
        << "seed " << seed;
  }
}

TEST_P(FuzzedTopology, TilesPartitionEveryCutLayer) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const nn::Graph g = random_graph(seed);
  for (int cut : valid_cut_points(g)) {
    const nn::TensorShape& s = g.shape(cut);
    if (s.h < 2 || s.w < 2) continue;
    PatchSpec spec;
    spec.split_layer = cut;
    spec.grid_rows = spec.grid_cols = 2;
    const PatchPlan plan = build_patch_plan(g, spec);
    std::set<std::pair<int, int>> covered;
    for (const PatchBranch& b : plan.branches) {
      const Region r = b.steps.back().out_region;
      for (int y = r.y.begin; y < r.y.end; ++y) {
        for (int x = r.x.begin; x < r.x.end; ++x) {
          ASSERT_TRUE(covered.emplace(y, x).second)
              << "seed " << seed << " cut " << cut;
        }
      }
    }
    ASSERT_EQ(covered.size(),
              static_cast<std::size_t>(s.h) * static_cast<std::size_t>(s.w))
        << "seed " << seed << " cut " << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(TwentySeeds, FuzzedTopology,
                         ::testing::Range(1, 21));

}  // namespace
}  // namespace qmcu::patch
