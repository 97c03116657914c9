// SessionPool / InferenceSession (nn/runtime/session_pool.h): concurrent
// submitters against N pre-compiled sessions must get results bit-identical
// to a lone model, exceptions must travel through the future, and the
// accounting (completed / per-session counts) must add up under stress.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "models/zoo.h"
#include "nn/compiled_model.h"
#include "nn/executor.h"
#include "nn/rng.h"
#include "nn/runtime/session_pool.h"
#include "patch/compiled_patch_model.h"
#include "patch/mcunetv2.h"
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

TEST(SessionPool, ServesQuantModelBitExact) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 1)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  // One weight conversion shared by every session in the pool.
  const auto params = nn::QuantizedParameters::build_shared(g, cfg);
  const nn::CompiledQuantModel reference(g, cfg, nn::ops::KernelTier::Simd,
                                         params);

  nn::SessionPool<nn::CompiledQuantModel> pool(3, [&] {
    return std::make_unique<nn::CompiledQuantModel>(
        g, cfg, nn::ops::KernelTier::Simd, params);
  });
  EXPECT_EQ(pool.num_sessions(), 3);

  std::vector<nn::Tensor> inputs;
  std::vector<nn::QTensor> expected;
  for (std::uint64_t seed = 2; seed < 8; ++seed) {
    inputs.push_back(random_input(g.shape(0), seed));
    expected.push_back(reference.run(inputs.back()));
  }
  std::vector<std::future<nn::QTensor>> futures;
  for (const nn::Tensor& in : inputs) futures.push_back(pool.submit(in));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    expect_q_identical(futures[i].get(), expected[i]);
  }
  EXPECT_EQ(pool.completed(), futures.size());
}

TEST(SessionPool, StressConcurrentSubmitters) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 10)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const auto params = nn::QuantizedParameters::build_shared(g, cfg);
  const nn::CompiledQuantModel reference(g, cfg, nn::ops::KernelTier::Simd,
                                         params);

  // Two distinct inputs with known outputs; submitters interleave them.
  const nn::Tensor in_a = random_input(g.shape(0), 11);
  const nn::Tensor in_b = random_input(g.shape(0), 12);
  const nn::QTensor out_a = reference.run(in_a);
  const nn::QTensor out_b = reference.run(in_b);

  constexpr int kSessions = 4;
  constexpr int kSubmitters = 6;
  constexpr int kPerSubmitter = 8;
  nn::SessionPool<nn::CompiledQuantModel> pool(kSessions, [&] {
    return std::make_unique<nn::CompiledQuantModel>(
        g, cfg, nn::ops::KernelTier::Simd, params);
  });

  std::atomic<int> mismatches{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        const bool use_a = (t + i) % 2 == 0;
        const nn::QTensor got = pool.run(use_a ? in_a : in_b);
        const nn::QTensor& want = use_a ? out_a : out_b;
        if (!(got.shape() == want.shape()) ||
            !std::equal(got.data().begin(), got.data().end(),
                        want.data().begin())) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(pool.completed(),
            static_cast<std::uint64_t>(kSubmitters * kPerSubmitter));
  EXPECT_EQ(pool.pending(), 0u);
  // Every request landed on some session, none on two.
  std::uint64_t total = 0;
  for (const std::uint64_t n : pool.per_session_requests()) total += n;
  EXPECT_EQ(total, static_cast<std::uint64_t>(kSubmitters * kPerSubmitter));
}

TEST(SessionPool, PropagatesModelExceptionsThroughFuture) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  nn::SessionPool<nn::CompiledModel> pool(2, [&] {
    return std::make_unique<nn::CompiledModel>(g);
  });
  // Wrong input shape: the model throws inside the serving thread and the
  // exception must surface at future.get().
  auto bad = pool.submit(random_input({4, 4, 3}, 13));
  EXPECT_THROW(bad.get(), std::invalid_argument);
  // The pool stays serviceable afterwards.
  auto good = pool.submit(random_input(g.shape(0), 14));
  EXPECT_EQ(good.get().shape(), g.shape(g.output()));
  EXPECT_EQ(pool.completed(), 1u);
}

TEST(SessionPool, ServesPatchModels) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  const patch::CompiledPatchModel reference(g, plan);
  const nn::Tensor in = random_input(g.shape(0), 15);
  const nn::Tensor expect = reference.run(in);

  nn::SessionPool<patch::CompiledPatchModel> pool(2, [&] {
    return std::make_unique<patch::CompiledPatchModel>(g, plan);
  });
  std::vector<std::future<nn::Tensor>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(pool.submit(in));
  for (auto& f : futures) {
    const nn::Tensor got = f.get();
    ASSERT_EQ(got.shape(), expect.shape());
    for (std::size_t i = 0; i < got.data().size(); ++i) {
      ASSERT_EQ(got.data()[i], expect.data()[i]);
    }
  }
}

TEST(SessionPool, SubmitBatchMatchesSingleSubmits) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 71)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const auto params = nn::QuantizedParameters::build_shared(g, cfg);
  const nn::CompiledQuantModel reference(g, cfg, nn::ops::KernelTier::Simd,
                                         params);
  nn::SessionPool<nn::CompiledQuantModel> pool(2, [&] {
    return std::make_unique<nn::CompiledQuantModel>(
        g, cfg, nn::ops::KernelTier::Simd, params);
  });

  std::vector<nn::Tensor> batch;
  std::vector<nn::QTensor> expected;
  for (std::uint64_t seed = 72; seed < 77; ++seed) {
    batch.push_back(random_input(g.shape(0), seed));
    expected.push_back(reference.run(batch.back()));
  }
  auto futures = pool.submit_batch(batch);
  ASSERT_EQ(futures.size(), batch.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    expect_q_identical(futures[i].get(), expected[i]);
  }
  EXPECT_EQ(pool.completed(), batch.size());

  // The whole batch runs on one session (one queue entry, arena reused
  // across the loop): exactly one session saw traffic.
  const auto counts = pool.per_session_requests();
  int sessions_used = 0;
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) {
    sessions_used += c > 0 ? 1 : 0;
    total += c;
  }
  EXPECT_EQ(sessions_used, 1);
  EXPECT_EQ(total, batch.size());

  // An empty batch is a no-op with no futures.
  EXPECT_TRUE(pool.submit_batch({}).empty());
}

TEST(SessionPool, SubmitBatchFailsOnlyTheBadItem) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 81)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const auto params = nn::QuantizedParameters::build_shared(g, cfg);
  const nn::CompiledQuantModel reference(g, cfg, nn::ops::KernelTier::Simd,
                                         params);
  nn::SessionPool<nn::CompiledQuantModel> pool(1, [&] {
    return std::make_unique<nn::CompiledQuantModel>(
        g, cfg, nn::ops::KernelTier::Simd, params);
  });

  const nn::Tensor good = random_input(g.shape(0), 82);
  const nn::QTensor expect = reference.run(good);
  std::vector<nn::Tensor> batch;
  batch.push_back(good);
  batch.push_back(random_input({4, 4, 3}, 83));  // wrong shape -> throws
  batch.push_back(good);
  auto futures = pool.submit_batch(batch);
  expect_q_identical(futures[0].get(), expect);
  EXPECT_THROW(futures[1].get(), std::exception);
  expect_q_identical(futures[2].get(), expect);
}

TEST(SessionPool, SharedSlabCapsArenaMemoryAcrossPools) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  const patch::CompiledPatchModel reference(g, plan);
  const nn::Tensor in = random_input(g.shape(0), 91);
  const nn::Tensor expect = reference.run(in);

  // Two pools over the same slab: sequential traffic to each must reuse
  // one max-sized block instead of holding an arena per model.
  auto slab = std::make_shared<nn::ArenaSlab>();
  using PatchPool = nn::SessionPool<patch::CompiledPatchModel>;
  const auto factory = [&](const std::shared_ptr<nn::ArenaSlab>& s) {
    auto model = std::make_unique<patch::CompiledPatchModel>(g, plan);
    model->set_arena_source(s);
    return model;
  };
  PatchPool pool_a(1, factory, slab);
  PatchPool pool_b(1, factory, slab);
  EXPECT_EQ(pool_a.slab(), slab);
  EXPECT_EQ(pool_b.slab(), slab);

  const nn::Tensor out_a = pool_a.run(in);
  const nn::Tensor out_b = pool_b.run(in);
  ASSERT_EQ(out_a.shape(), expect.shape());
  for (std::size_t i = 0; i < expect.data().size(); ++i) {
    ASSERT_EQ(out_a.data()[i], expect.data()[i]);
    ASSERT_EQ(out_b.data()[i], expect.data()[i]);
  }
  EXPECT_EQ(slab->outstanding_leases(), 0);
  // One block serves both pools' models: max, not sum.
  EXPECT_EQ(slab->footprint_bytes(), reference.arena_bytes());
}

// Layer-based compiled models lease run arenas the same way the patch
// models do: two pools over one slab (float + quant flavours of the same
// graph), sequential traffic, and the slab holds max-sized blocks instead
// of one arena per model — with outputs bit-identical to owned-arena runs.
TEST(SessionPool, LayerBasedModelsLeaseFromSharedSlab) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 95)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const auto params = nn::QuantizedParameters::build_shared(g, cfg);
  const nn::CompiledQuantModel qreference(g, cfg, nn::ops::KernelTier::Simd,
                                          params);
  const nn::CompiledModel freference(g);
  const nn::Tensor in = random_input(g.shape(0), 96);
  const nn::QTensor qexpect = qreference.run(in);
  const nn::Tensor fexpect = freference.run(in);

  auto slab = std::make_shared<nn::ArenaSlab>();
  nn::SessionPool<nn::CompiledQuantModel> qpool(
      2,
      [&](const std::shared_ptr<nn::ArenaSlab>& s) {
        auto model = std::make_unique<nn::CompiledQuantModel>(
            g, cfg, nn::ops::KernelTier::Simd, params);
        model->set_arena_source(s);
        return model;
      },
      slab);
  nn::SessionPool<nn::CompiledModel> fpool(
      1,
      [&](const std::shared_ptr<nn::ArenaSlab>& s) {
        auto model = std::make_unique<nn::CompiledModel>(g);
        model->set_arena_source(s);
        return model;
      },
      slab);
  EXPECT_EQ(qpool.slab(), slab);
  EXPECT_EQ(fpool.slab(), slab);

  for (int rep = 0; rep < 3; ++rep) {
    expect_q_identical(qpool.run(in), qexpect);
    const nn::Tensor fout = fpool.run(in);
    ASSERT_EQ(fout.shape(), fexpect.shape());
    for (std::size_t i = 0; i < fexpect.data().size(); ++i) {
      ASSERT_EQ(fout.data()[i], fexpect.data()[i]);
    }
  }
  // Every lease returned, and sequential traffic never held more than one
  // block per concurrently-running request.
  EXPECT_EQ(slab->outstanding_leases(), 0);
  EXPECT_EQ(slab->high_water_bytes(),
            std::max(qreference.arena_bytes(), freference.arena_bytes()));
  // The two block sizes bound the footprint by max + smaller-model block,
  // strictly below the three-model sum an unshared fleet would hold.
  EXPECT_LE(slab->footprint_bytes(),
            qreference.arena_bytes() + freference.arena_bytes());
}

// A capacity-carrying slab is the serving memory budget: acquires beyond
// it fail with the distinct ArenaSlabExhausted (no deadlock, no partial
// lease), and a release makes room again.
TEST(ArenaSlab, CapacityBoundsAcquires) {
  nn::ArenaSlab slab(1024);
  EXPECT_EQ(slab.capacity_bytes(), 1024);
  // A single over-budget lease fails before any allocation happens.
  EXPECT_THROW((void)slab.acquire(2048), nn::ArenaSlabExhausted);
  EXPECT_EQ(slab.footprint_bytes(), 0);

  auto a = slab.acquire(512);
  auto b = slab.acquire(512);
  EXPECT_EQ(slab.footprint_bytes(), 1024);
  // Budget spent: even one more byte is refused while both are live.
  EXPECT_THROW((void)slab.acquire(1), nn::ArenaSlabExhausted);
  // The failed acquire changed nothing — existing leases still valid.
  EXPECT_EQ(slab.outstanding_leases(), 2);

  // Releasing frees a block for reuse (best-fit, no new allocation).
  a.release();
  auto c = slab.acquire(256);
  EXPECT_EQ(slab.footprint_bytes(), 1024);
  b.release();
  c.release();
  EXPECT_EQ(slab.outstanding_leases(), 0);
}

// Concurrent leasing against an exhausted slab: every contender gets the
// graceful error (never blocks), the holder's lease is untouched, and the
// moment it releases the same threads' retries succeed.
TEST(ArenaSlab, ConcurrentExhaustionFailsGracefullyThenRecovers) {
  nn::ArenaSlab slab(1024);
  auto holder = slab.acquire(1024);  // the whole budget

  constexpr int kThreads = 4;
  std::atomic<int> exhausted{0};
  {
    std::vector<std::thread> contenders;
    for (int t = 0; t < kThreads; ++t) {
      contenders.emplace_back([&] {
        try {
          (void)slab.acquire(256);
        } catch (const nn::ArenaSlabExhausted&) {
          exhausted.fetch_add(1);
        }
      });
    }
    for (std::thread& t : contenders) t.join();
  }
  // Joining at all proves no contender deadlocked; all were shed.
  EXPECT_EQ(exhausted.load(), kThreads);
  EXPECT_EQ(slab.outstanding_leases(), 1);
  EXPECT_EQ(slab.footprint_bytes(), 1024);

  holder.release();
  // Room again: concurrent retries all succeed (serially reusing the free
  // 1024-byte block and allocating nothing new past it is best-fit's
  // business; what matters here is no error and balanced accounting).
  std::atomic<int> succeeded{0};
  {
    std::vector<std::thread> retries;
    for (int t = 0; t < kThreads; ++t) {
      retries.emplace_back([&] {
        try {
          auto lease = slab.acquire(128);
          succeeded.fetch_add(1);
        } catch (const nn::ArenaSlabExhausted&) {
        }
      });
    }
    for (std::thread& t : retries) t.join();
  }
  EXPECT_GE(succeeded.load(), 1);
  EXPECT_EQ(slab.outstanding_leases(), 0);
  EXPECT_LE(slab.footprint_bytes(), slab.capacity_bytes());
}

// The exhaustion error travels through a SessionPool future like any model
// exception: the one request is shed, the lane stays serviceable, and no
// lease leaks.
TEST(SessionPool, SlabExhaustionShedsTheRequestNotTheLane) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  // Far too small for any run arena: every leased run must shed.
  auto slab = std::make_shared<nn::ArenaSlab>(64);
  nn::SessionPool<patch::CompiledPatchModel> pool(
      1,
      [&](const std::shared_ptr<nn::ArenaSlab>& s) {
        auto model = std::make_unique<patch::CompiledPatchModel>(g, plan);
        model->set_arena_source(s);
        return model;
      },
      slab);

  const nn::Tensor in = random_input(g.shape(0), 97);
  auto first = pool.submit(in);
  EXPECT_THROW(first.get(), nn::ArenaSlabExhausted);
  // The serving thread survived the throw — the next request reaches the
  // model (and sheds the same way, since the budget is still too small).
  auto second = pool.submit(in);
  EXPECT_THROW(second.get(), nn::ArenaSlabExhausted);
  EXPECT_EQ(slab->outstanding_leases(), 0);
  EXPECT_EQ(slab->footprint_bytes(), 0);
  EXPECT_EQ(pool.completed(), 0u);
}

TEST(InferenceSession, CountsRequests) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  nn::InferenceSession<nn::CompiledModel> session(
      std::make_unique<nn::CompiledModel>(g));
  const nn::Tensor in = random_input(g.shape(0), 16);
  (void)session.run(in);
  (void)session.run(in);
  EXPECT_EQ(session.requests_served(), 2u);
  EXPECT_EQ(&session.model().graph(), &g);
}

}  // namespace
}  // namespace qmcu
