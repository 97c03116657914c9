// Parallel patch execution (compiled_patch_model.h + worker_pool.h) must be
// bit-identical to the sequential path for every worker count, across the
// model zoo and every quant mode (int8, sub-byte, mixed per-branch);
// the tiled region merge must be completion-order independent; the
// per-worker arena layout must keep slices and the shared region disjoint;
// and the thread-affinity guard must catch a KernelBackend shared across
// threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/quantmcu.h"
#include "data/synthetic.h"
#include "models/zoo.h"
#include "nn/executor.h"
#include "nn/memory_planner.h"
#include "nn/ops/backend.h"
#include "nn/rng.h"
#include "nn/runtime/worker_pool.h"
#include "patch/compiled_patch_model.h"
#include "patch/mcunetv2.h"
#include "patch/region_pool.h"
#include "quant/calibration.h"

namespace qmcu {
namespace {

nn::Tensor random_input(nn::TensorShape s, std::uint64_t seed) {
  nn::Tensor t(s);
  nn::Rng rng(seed);
  for (float& v : t.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

models::ModelConfig small_cfg() {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.25f;
  cfg.resolution = 48;
  cfg.num_classes = 10;
  return cfg;
}

void expect_q_identical(const nn::QTensor& a, const nn::QTensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(a.params(), b.params());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(static_cast<int>(a.data()[i]), static_cast<int>(b.data()[i]))
        << "element " << i;
  }
}

// --- parity across the zoo: int8, sub-byte, mixed ----------------------------

TEST(ParallelPatch, QuantBitExactAcrossBitwidths) {
  for (const char* name : {"mobilenetv2", "mcunet", "mnasnet"}) {
    const nn::Graph g = models::make_model(name, small_cfg());
    const auto ranges = quant::calibrate_ranges(
        g, std::vector<nn::Tensor>{random_input(g.shape(0), 5)});
    const patch::PatchPlan plan =
        patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
    for (const int bits : {8, 4}) {
      const auto cfg = quant::make_quant_config(g, ranges,
                                                nn::uniform_bits(g, bits));
      const patch::CompiledPatchQuantModel model(g, plan, cfg);
      for (std::uint64_t seed = 11; seed <= 13; ++seed) {
        const nn::Tensor in = random_input(g.shape(0), seed);
        const nn::QTensor expect = model.run(in);
        for (const int workers : {2, 3, 4}) {
          SCOPED_TRACE(std::string(name) + ", " + std::to_string(bits) +
                       " bits, " + std::to_string(workers) + " workers");
          nn::WorkerPool pool(workers);
          expect_q_identical(model.run(in, &pool), expect);
        }
        // Null / single-worker pools take the sequential path.
        nn::WorkerPool one(1);
        expect_q_identical(model.run(in, &one), expect);
        expect_q_identical(model.run(in, nullptr), expect);
      }
    }
  }
}

TEST(ParallelPatch, MixedModeBitExact) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  data::DataConfig dc;
  dc.resolution = 48;
  const data::SyntheticDataset ds(dc);
  const std::vector<nn::Tensor> calib = ds.batch(0, 2);

  core::QuantMcuConfig qcfg;
  qcfg.patch.grid = 2;
  qcfg.patch.stage_downsample = 4;
  const core::QuantMcuPlan plan = core::build_quantmcu_plan(
      g, mcu::arduino_nano_33_ble_sense(), calib, qcfg);
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto branch_cfgs = core::make_branch_quant_configs(g, plan, ranges);
  const auto deploy_cfg = core::make_deployment_quant_config(g, plan, ranges);
  const patch::CompiledPatchQuantModel model(g, plan.patch_plan, deploy_cfg,
                                             branch_cfgs);
  for (int i = 17; i < 20; ++i) {
    const nn::Tensor in = ds.image(i);
    const nn::QTensor expect = model.run(in);
    for (const int workers : {2, 3, 4}) {
      nn::WorkerPool pool(workers);
      expect_q_identical(model.run(in, &pool), expect);
    }
  }
}

TEST(ParallelPatch, UniformEntryPointsMatch) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  const nn::Tensor in = random_input(g.shape(0), 23);
  nn::WorkerPool pool(4);
  const auto ranges = quant::calibrate_ranges(g, std::vector<nn::Tensor>{in});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const patch::CompiledPatchQuantModel model(g, plan, cfg);
  expect_q_identical(model.run(in, &pool), model.run(in));
}

// --- region-merge determinism under shuffled completion order ---------------

TEST(ParallelPatch, MergeOrderIndependentQuant) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  const int split = plan.spec.split_layer;
  const nn::TensorShape out_shape = g.shape(split);

  // Per-branch tiles with per-branch params (exercises the mixed-mode
  // rescale path of the merge).
  nn::Rng rng(77);
  std::vector<nn::QTensor> tiles;
  std::vector<patch::Region> regions;
  for (std::size_t b = 0; b < plan.branches.size(); ++b) {
    const patch::BranchStep& last = plan.branches[b].steps.back();
    regions.push_back(last.out_region);
    const nn::QuantParams p = nn::choose_quant_params(
        -1.0f - 0.1f * static_cast<float>(b), 1.0f, 8);
    nn::QTensor tile(nn::TensorShape{last.out_region.y.size(),
                                     last.out_region.x.size(), out_shape.c},
                     p);
    for (auto& v : tile.data()) {
      v = static_cast<std::int8_t>(rng.uniform(-128, 128));
    }
    tiles.push_back(std::move(tile));
  }
  const nn::QuantParams target = nn::choose_quant_params(-2.0f, 2.0f, 8);

  const auto merge_in_order = [&](const std::vector<std::size_t>& order) {
    nn::QTensor assembled(out_shape, target);
    std::fill(assembled.data().begin(), assembled.data().end(),
              std::int8_t{0});
    for (std::size_t b : order) {
      patch::merge_region_q(tiles[b], regions[b], assembled);
    }
    return assembled;
  };

  std::vector<std::size_t> order(tiles.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const nn::QTensor expect = merge_in_order(order);

  std::mt19937 shuffler(123);
  for (int round = 0; round < 10; ++round) {
    std::shuffle(order.begin(), order.end(), shuffler);
    expect_q_identical(merge_in_order(order), expect);
  }

  // The tiles cover the assembled map exactly once (disjoint partition) —
  // the property that makes the merge commute.
  std::vector<int> cover(static_cast<std::size_t>(out_shape.h * out_shape.w),
                         0);
  for (const patch::Region& r : regions) {
    for (int y = r.y.begin; y < r.y.end; ++y) {
      for (int x = r.x.begin; x < r.x.end; ++x) {
        ++cover[static_cast<std::size_t>(y * out_shape.w + x)];
      }
    }
  }
  for (const int c : cover) EXPECT_EQ(c, 1);
}

// --- parallel arena layout ---------------------------------------------------

TEST(ParallelPatch, ParallelPlanSlicesAndSharedAreDisjoint) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 31)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  const patch::CompiledPatchQuantModel model(g, plan, cfg);

  // Both layouts the runtime binds: the pipelined graph's and streaming's.
  for (const int workers : {1, 2, 4, 8}) {
    for (const nn::ParallelArenaPlan* p :
         {&model.pipelined_plan(workers), &model.streaming_plan(workers)}) {
      EXPECT_EQ(p->num_workers, workers);
      EXPECT_GE(p->slice_stride, p->slice.peak_bytes);
      EXPECT_EQ(p->slice_stride % 16, 0);
      // Slices precede the shared region; slots stay inside their slice.
      EXPECT_EQ(p->shared_offset(), p->slice_stride * workers);
      EXPECT_EQ(p->total_bytes(), p->shared_offset() + p->shared.peak_bytes);
      for (const nn::ArenaSlot& s : p->slice.slots) {
        EXPECT_LE(s.offset + s.size, p->slice_stride);
      }
      for (int w = 0; w + 1 < workers; ++w) {
        EXPECT_LE(p->slice_offset(w) + p->slice.peak_bytes,
                  p->slice_offset(w + 1));
      }
      // Lifetime-overlapping slots never overlap in bytes (both regions).
      for (const nn::ArenaPlan* ap : {&p->slice, &p->shared}) {
        for (std::size_t a = 0; a < ap->slots.size(); ++a) {
          for (std::size_t b = a + 1; b < ap->slots.size(); ++b) {
            if (ap->slots[a].overlaps_lifetime(ap->slots[b])) {
              EXPECT_FALSE(ap->slots[a].overlaps_bytes(ap->slots[b]))
                  << "slots " << a << "/" << b;
            }
          }
        }
      }
    }
  }
  // Runs must never write past the layout they bind.
  nn::WorkerPool pool(4);
  (void)model.run(random_input(g.shape(0), 32), &pool);
  EXPECT_LE(model.measured_high_water(),
            model.pipelined_plan(4).total_bytes());
  for (const int workers : {1, 4}) {
    nn::WorkerPool stream_pool(workers);
    patch::StreamState state;
    (void)model.run_streaming(random_input(g.shape(0), 33), &stream_pool,
                              state);
    EXPECT_LE(model.measured_high_water(),
              model.streaming_plan(workers).total_bytes());
  }
}

// --- borrowed step inputs ----------------------------------------------------
//
// Steps whose input window is whole rows of the producer's map read the
// producer's arena bytes in place instead of a copy, so in every layout the
// engine binds, each consuming step's output slot must be byte-disjoint
// from every producer slot it reads. A copy used to hide an overlap; a
// borrowed view would not.

struct SlotPair {
  std::size_t consumer;
  std::size_t producer;
};

void expect_pairs_disjoint(const nn::ArenaPlan& ap, std::int64_t base,
                           const std::vector<SlotPair>& pairs,
                           const std::string& what) {
  for (const SlotPair& pr : pairs) {
    ASSERT_LT(pr.consumer, ap.slots.size()) << what;
    ASSERT_LT(pr.producer, ap.slots.size()) << what;
    nn::ArenaSlot out = ap.slots[pr.consumer];
    nn::ArenaSlot in = ap.slots[pr.producer];
    out.offset += base;
    in.offset += base;
    EXPECT_FALSE(out.overlaps_bytes(in))
        << what << ": consumer slot " << pr.consumer << " overlaps producer "
        << pr.producer;
  }
}

void expect_producer_slots_disjoint(
    const nn::Graph& g, const patch::PatchPlan& plan,
    const patch::CompiledPatchQuantModel& model, const std::string& name) {
  const patch::PatchBranch& proto = plan.branches.front();
  const std::size_t steps = proto.steps.size();
  const int split = plan.spec.split_layer;
  // Branch steps: slot index = step index (sequential plan and slice).
  std::vector<SlotPair> branch;
  for (std::size_t s = 0; s < steps; ++s) {
    for (const int in : g.layer(proto.steps[s].layer_id).inputs) {
      const int p = proto.step_of(in);
      ASSERT_GE(p, 0) << name;
      branch.push_back({s, static_cast<std::size_t>(p)});
    }
  }
  // Tail layers: shared index = id - split - 1; the assembled cut-layer map
  // follows the last tail slot.
  const auto tail_index = [&](int id) {
    return static_cast<std::size_t>(id == split ? g.size() - split - 1
                                                : id - split - 1);
  };
  std::vector<SlotPair> tail;
  for (int id = split + 1; id < g.size(); ++id) {
    for (const int in : g.layer(id).inputs) {
      ASSERT_GE(in, split) << name << ": tail reads a pre-cut map";
      tail.push_back({tail_index(id), tail_index(in)});
    }
  }
  // The sequential plan: branch slots first, then the shared requests.
  std::vector<SlotPair> seq_tail = tail;
  for (SlotPair& pr : seq_tail) {
    pr.consumer += steps;
    pr.producer += steps;
  }
  expect_pairs_disjoint(model.arena_plan(), 0, branch, name + " sequential");
  expect_pairs_disjoint(model.arena_plan(), 0, seq_tail,
                        name + " sequential tail");
  for (const int workers : {1, 4}) {
    for (const auto& [kind, p] :
         {std::pair<const char*, const nn::ParallelArenaPlan*>{
              "pipelined", &model.pipelined_plan(workers)},
          {"streaming", &model.streaming_plan(workers)}}) {
      const std::string what =
          name + " " + kind + " w=" + std::to_string(workers);
      for (int lane = 0; lane < workers; ++lane) {
        expect_pairs_disjoint(p->slice, p->slice_offset(lane), branch,
                              what + " lane " + std::to_string(lane));
      }
      expect_pairs_disjoint(p->shared, p->shared_offset(), tail,
                            what + " shared");
    }
  }
}

TEST(ParallelPatch, BorrowedInputsNeverAliasTheirOutputSlot) {
  for (const std::string& name : models::model_names()) {
    const nn::Graph g = models::make_model(name, small_cfg());
    const patch::PatchPlan plan =
        patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
    const auto ranges = quant::calibrate_ranges(
        g, std::vector<nn::Tensor>{random_input(g.shape(0), 34)});
    const auto cfg =
        quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
    const patch::CompiledPatchQuantModel qmodel(g, plan, cfg);
    expect_producer_slots_disjoint(g, plan, qmodel, name + " int8");
  }
}

// --- thread-affinity enforcement --------------------------------------------

TEST(ThreadAffinity, CatchesBackendSharedAcrossThreads) {
  nn::ops::KernelBackend backend;
  const nn::Tensor a = random_input({4, 4, 8}, 41);
  const nn::Tensor b = random_input({4, 4, 8}, 42);
  const nn::QuantParams p = nn::choose_quant_params(-3.0f, 3.0f, 8);
  const nn::QTensor qa = nn::quantize(a, p);
  const nn::QTensor qb = nn::quantize(b, p);
  nn::QTensor out(qa.shape(), p);
  // First use binds the backend to this thread.
  backend.add_into(qa, qb, nn::Activation::None, out);

  bool threw = false;
  std::thread other([&] {
    try {
      backend.add_into(qa, qb, nn::Activation::None, out);
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  other.join();
  EXPECT_TRUE(threw) << "cross-thread use without rebind must throw";

  // Explicit handoff makes the same use legal.
  backend.rebind_thread();
  bool ok = false;
  std::thread third([&] {
    backend.add_into(qa, qb, nn::Activation::None, out);
    ok = true;
  });
  third.join();
  EXPECT_TRUE(ok);
}

TEST(ThreadAffinity, CatchesScratchArenaSharedAcrossThreads) {
  nn::ops::ScratchArena arena;
  (void)arena.f32(16);  // binds to this thread
  bool threw = false;
  std::thread other([&] {
    try {
      (void)arena.i8(16);
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  other.join();
  EXPECT_TRUE(threw);
  arena.rebind_thread();
  (void)arena.i32(16);  // re-adopted by this thread after rebind
}

}  // namespace
}  // namespace qmcu
