// ServingFrontend (nn/serving/serving_frontend.h): the serving front-end
// must (a) pin lane i to the (i mod n)-th CPU of the process's allowed
// set, never outside it, (b) serve results bit-identical to a lone
// sequential model through every path (single request, batch-spread,
// stream frame) and for every model kind, with model exceptions failing
// only their own future, (c) shed load explicitly — queue-full
// submissions are rejected at admission, and expired requests get a
// distinct error and are never started — and (d) keep lane models and
// arena leases coherent across hot swaps, shared slabs and slab
// exhaustion.
// Fake models with gates/latches make the shed paths deterministic; real
// compiled models cover the bit-exactness contract.
#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "models/zoo.h"
#include "nn/compiled_model.h"
#include "nn/rng.h"
#include "nn/runtime/cpu_affinity.h"
#include "nn/serving/serving_frontend.h"
#include "patch/compiled_patch_model.h"
#include "patch/mcunetv2.h"
#include "quant/calibration.h"

namespace qmcu {
namespace {

using nn::serving::DeadlineExceededError;
using nn::serving::RejectedError;
using nn::serving::ServingConfig;
using nn::serving::ServingFrontend;

nn::Tensor random_input(nn::TensorShape s, std::uint64_t seed) {
  nn::Tensor t(s);
  nn::Rng rng(seed);
  for (float& v : t.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

// A tensor whose first element tags it, so batch-order checks can map
// outputs back to inputs.
nn::Tensor tagged_input(float tag) {
  nn::Tensor t(nn::TensorShape{1, 1, 4});
  t.data()[0] = tag;
  return t;
}

models::ModelConfig small_cfg() {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.25f;
  cfg.resolution = 48;
  cfg.num_classes = 10;
  return cfg;
}

void expect_identical(const nn::QTensor& got, const nn::QTensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  ASSERT_EQ(got.params(), want.params());
  for (std::size_t i = 0; i < got.data().size(); ++i) {
    ASSERT_EQ(static_cast<int>(got.data()[i]),
              static_cast<int>(want.data()[i]))
        << "element " << i;
  }
}

void expect_identical(const nn::Tensor& got, const nn::Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (std::size_t i = 0; i < got.data().size(); ++i) {
    ASSERT_EQ(got.data()[i], want.data()[i]) << "element " << i;
  }
}

// A manually-released barrier; serving threads block in wait(), the test
// thread observes how many are parked and releases them. Every test path
// MUST release before the frontend is destroyed (EXPECT over ASSERT in
// gated scopes keeps teardown reachable).
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  int waiters = 0;

  void wait() {
    std::unique_lock<std::mutex> lock(mu);
    ++waiters;
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  // True once `n` threads are parked in wait() (10 s timeout).
  bool await_waiters(int n) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(10),
                       [&] { return waiters >= n; });
  }
};

// Echoes its input; optionally parks on a gate first.
struct EchoModel {
  std::shared_ptr<Gate> gate;
  nn::Tensor run(const nn::Tensor& in) const {
    if (gate) gate->wait();
    return in;
  }
};

// Blocks every run until `expected` lanes have entered one — proves chunks
// of one batch really execute on that many lanes concurrently. Times out
// (throwing, which fails the future loudly) instead of hanging.
struct RendezvousModel {
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    int arrivals = 0;
  };
  std::shared_ptr<State> state;
  int expected = 0;

  nn::Tensor run(const nn::Tensor& in) const {
    std::unique_lock<std::mutex> lock(state->mu);
    ++state->arrivals;
    state->cv.notify_all();
    if (!state->cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return state->arrivals >= expected; })) {
      throw std::runtime_error("rendezvous timed out: batch did not spread");
    }
    return in;
  }
};

// Lane i -> the (i mod n)-th allowed CPU, n = min(core_budget or all,
// allowed count). The allowed ids need not start at 0 (taskset -c 2,3).
TEST(LaneCpu, WrapsRoundRobinWhenLanesOutnumberCpus) {
  const std::vector<int> allowed = {2, 5, 7};
  const std::vector<int> want = {2, 5, 7, 2, 5, 7, 2};
  for (int lane = 0; lane < static_cast<int>(want.size()); ++lane) {
    EXPECT_EQ(nn::serving::lane_cpu(lane, 0, allowed),
              want[static_cast<std::size_t>(lane)])
        << "lane " << lane;
  }
  // On a 0..n-1 mask lane i is CPU i.
  const std::vector<int> dense = {0, 1, 2, 3};
  for (int lane = 0; lane < 4; ++lane) {
    EXPECT_EQ(nn::serving::lane_cpu(lane, 4, dense), lane);
  }
}

TEST(LaneCpu, CoreBudgetBoundsTheCpusLanesShare) {
  // Budget below the lane count: 4 lanes share the first 2 allowed CPUs.
  const std::vector<int> allowed = {0, 1, 2, 3};
  const std::vector<int> want = {0, 1, 0, 1};
  for (int lane = 0; lane < 4; ++lane) {
    EXPECT_EQ(nn::serving::lane_cpu(lane, 2, allowed),
              want[static_cast<std::size_t>(lane)])
        << "lane " << lane;
  }
  // A budget larger than the allowed set names only allowed CPUs.
  const std::vector<int> small = {4, 6};
  for (int lane = 0; lane < 8; ++lane) {
    const int cpu = nn::serving::lane_cpu(lane, 8, small);
    EXPECT_EQ(cpu, small[static_cast<std::size_t>(lane % 2)]);
  }
}

// A front-end reports the mapping over the constructing thread's CPU set.
TEST(LaneCpu, FrontendLanesFollowTheAllowedSet) {
  ServingConfig cfg;
  cfg.sessions = 3;
  cfg.core_budget = 2;
  cfg.pin_lanes = false;
  ServingFrontend<EchoModel> frontend(
      cfg, [](int, const std::shared_ptr<nn::ArenaSlab>&) {
        return std::make_unique<EchoModel>();
      });
  const std::vector<int> allowed = nn::runtime::allowed_cpus();
  for (int lane = 0; lane < 3; ++lane) {
    EXPECT_EQ(frontend.lane_cpu(lane),
              nn::serving::lane_cpu(lane, 2, allowed));
  }
  EXPECT_EQ(frontend.stats().pinned_lanes, 0);
}

#if defined(__linux__)
// Echoes its input with element 0 replaced by the CPU the call ran on.
struct CpuProbeModel {
  nn::Tensor run(const nn::Tensor& in) const {
    nn::Tensor out = in;
    out.data()[0] = static_cast<float>(sched_getcpu());
    return out;
  }
};

// Under a narrowed CPU mask (as `taskset` leaves it) the lane pins inside
// the mask: with only the highest allowed CPU left, lane 0 runs there, not
// on CPU 0.
TEST(LaneCpu, LanePinsInsideTheProcessCpuMask) {
  const std::vector<int> allowed = nn::runtime::allowed_cpus();
  if (!nn::runtime::affinity_supported() || allowed.size() < 2) {
    GTEST_SKIP() << "needs affinity support and >= 2 CPUs";
  }
  const std::vector<int> highest = {allowed.back()};
  ASSERT_TRUE(nn::runtime::pin_current_thread(highest));
  // Restores this thread's mask after the front-end is gone.
  struct Restore {
    const std::vector<int>& cpus;
    ~Restore() { (void)nn::runtime::pin_current_thread(cpus); }
  } restore{allowed};

  ServingConfig cfg;
  cfg.sessions = 1;
  ServingFrontend<CpuProbeModel> frontend(
      cfg, [](int, const std::shared_ptr<nn::ArenaSlab>&) {
        return std::make_unique<CpuProbeModel>();
      });
  EXPECT_EQ(frontend.lane_cpu(0), highest[0]);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(frontend.run(tagged_input(-1.0f)).data()[0],
              static_cast<float>(highest[0]));
  }
  EXPECT_EQ(frontend.stats().pinned_lanes, 1);
}
#endif

// Serves `inputs` as concurrent single requests, then as one spread batch
// with a wrong-shape input spliced in at index 1; every completed result
// must equal `expected` element for element. The bad item fails only its
// own future (the rest of its chunk still runs), and the accounting adds
// up: completed, per-lane request counts, returned slab leases.
template <class Model>
void expect_serves_bit_exact(
    ServingFrontend<Model>& frontend, const std::vector<nn::Tensor>& inputs,
    const std::vector<typename ServingFrontend<Model>::Output>& expected) {
  using Output = typename ServingFrontend<Model>::Output;
  std::vector<std::future<Output>> futures;
  for (const nn::Tensor& in : inputs) futures.push_back(frontend.submit(in));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    expect_identical(futures[i].get(), expected[i]);
  }

  std::vector<nn::Tensor> batch = inputs;
  batch.insert(batch.begin() + 1, random_input({4, 4, 3}, 99));
  auto results = frontend.submit_batch(std::move(batch));
  ASSERT_EQ(results.size(), inputs.size() + 1);
  EXPECT_THROW((void)results[1].get(), std::invalid_argument);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE("batch item " + std::to_string(i));
    expect_identical(results[i == 0 ? 0 : i + 1].get(), expected[i]);
  }

  const auto stats = frontend.stats();
  EXPECT_EQ(stats.completed, 2 * inputs.size());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.expired, 0u);
  EXPECT_EQ(stats.pending, 0u);
  // Every request ran on exactly one lane (the failed one included).
  const auto per_lane = frontend.per_session_requests();
  EXPECT_EQ(std::accumulate(per_lane.begin(), per_lane.end(),
                            std::uint64_t{0}),
            2 * inputs.size() + 1);
  EXPECT_EQ(frontend.slab()->outstanding_leases(), 0);
}

// The bit-exactness contract end to end, for every model kind the
// front-end serves: a layer-based quant model over three lanes and a
// quant patch model over two lanes (core budget 4, pinning on,
// slab-leased arenas).
TEST(ServingFrontend, EveryModelKindBitExactVsSequential) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 1)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const auto params = nn::QuantizedParameters::build_shared(g, cfg);
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  std::vector<nn::Tensor> inputs;
  for (std::uint64_t seed = 2; seed < 8; ++seed) {
    inputs.push_back(random_input(g.shape(0), seed));
  }

  {
    SCOPED_TRACE("CompiledQuantModel, 3 lanes");
    const nn::CompiledQuantModel reference(g, cfg, nn::ops::KernelTier::Simd,
                                           params);
    std::vector<nn::QTensor> expected;
    for (const nn::Tensor& in : inputs) expected.push_back(reference.run(in));
    ServingConfig scfg;
    scfg.sessions = 3;
    ServingFrontend<nn::CompiledQuantModel> frontend(scfg, [&](int, const std::shared_ptr<nn::ArenaSlab>&) {
      return std::make_unique<nn::CompiledQuantModel>(
          g, cfg, nn::ops::KernelTier::Simd, params);
    });
    EXPECT_EQ(frontend.num_sessions(), 3);
    expect_serves_bit_exact(frontend, inputs, expected);
  }
  {
    SCOPED_TRACE("CompiledPatchQuantModel, 2 lanes");
    const patch::CompiledPatchQuantModel reference(
        g, plan, cfg, {}, nn::ops::KernelTier::Simd, params);
    std::vector<nn::QTensor> expected;
    for (const nn::Tensor& in : inputs) expected.push_back(reference.run(in));
    ServingConfig scfg;
    scfg.sessions = 2;
    scfg.core_budget = 4;
    scfg.pin_lanes = true;
    ServingFrontend<patch::CompiledPatchQuantModel> frontend(
        scfg, [&](int, const std::shared_ptr<nn::ArenaSlab>& slab) {
          auto model = std::make_unique<patch::CompiledPatchQuantModel>(
              g, plan, cfg, std::vector<patch::BranchQuantConfig>{},
              nn::ops::KernelTier::Simd, params);
          model->set_arena_source(slab);
          return model;
        });
    expect_serves_bit_exact(frontend, inputs, expected);
  }
}

// A request whose input holds a NaN has no quantized code: staging rejects
// it with a typed error, its future carries that error, and the lane then
// serves the next request (and stream frame) bit-exactly.
TEST(ServingFrontend, NanRequestFailsItsFutureAndTheLaneServesOn) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 1)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  const patch::CompiledPatchQuantModel reference(g, plan, cfg);

  ServingConfig scfg;
  scfg.sessions = 1;
  using Frontend = ServingFrontend<patch::CompiledPatchQuantModel>;
  Frontend frontend(scfg, [&](int, const std::shared_ptr<nn::ArenaSlab>&) {
    return std::make_unique<patch::CompiledPatchQuantModel>(g, plan, cfg);
  });
  nn::Tensor bad = random_input(g.shape(0), 2);
  bad.data()[bad.data().size() / 2] = std::numeric_limits<float>::quiet_NaN();
  const nn::Tensor good = random_input(g.shape(0), 3);
  // The same frame with its last pixel changed: a primed stream would
  // re-quantize only that pixel.
  nn::Tensor nudged = good;
  nudged.data().back() += 1.0f;
  const auto same = [&](const nn::QTensor& got, const nn::Tensor& in) {
    const nn::QTensor expect = reference.run(in);
    ASSERT_EQ(got.shape(), expect.shape());
    for (std::size_t j = 0; j < got.data().size(); ++j) {
      ASSERT_EQ(got.data()[j], expect.data()[j]) << "element " << j;
    }
  };

  auto failed = frontend.submit(bad);
  EXPECT_THROW((void)failed.get(), std::invalid_argument);
  same(frontend.submit(good).get(), good);

  // The failed frame wrote part of the stream's retained input before the
  // NaN row; the stream must not trust those bytes afterwards.
  const std::uint64_t stream = frontend.open_stream();
  same(frontend.submit_stream(stream, good).get(), good);
  auto failed_frame = frontend.submit_stream(stream, bad);
  EXPECT_THROW((void)failed_frame.get(), std::invalid_argument);
  same(frontend.submit_stream(stream, nudged).get(), nudged);
}

// Each open stream's retained arena is a lease on the lanes' shared slab,
// so destroying a front-end whose streams were never closed must release
// those leases before the slab goes away (clean under ASan).
TEST(ServingFrontend, DestroyedWithOpenStreamsOnEveryLane) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 1)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));

  ServingConfig scfg;
  scfg.sessions = 2;
  scfg.core_budget = 4;
  using Frontend = ServingFrontend<patch::CompiledPatchQuantModel>;
  static_assert(Frontend::kStreamable);
  auto frontend = std::make_unique<Frontend>(
      scfg, [&](int, const std::shared_ptr<nn::ArenaSlab>& slab) {
        auto model =
            std::make_unique<patch::CompiledPatchQuantModel>(g, plan, cfg);
        model->set_arena_source(slab);
        return model;
      });
  std::vector<std::uint64_t> streams;
  for (int lane = 0; lane < scfg.sessions; ++lane) {
    streams.push_back(frontend->open_stream());
  }
  std::vector<std::future<nn::QTensor>> frames;
  for (std::uint64_t seed = 10; seed < 13; ++seed) {
    for (const std::uint64_t id : streams) {
      frames.push_back(
          frontend->submit_stream(id, random_input(g.shape(0), seed)));
    }
  }
  for (std::future<nn::QTensor>& f : frames) (void)f.get();

  const std::weak_ptr<nn::ArenaSlab> slab = frontend->slab();
  EXPECT_EQ(slab.lock()->outstanding_leases(),
            static_cast<int>(streams.size()));
  frontend.reset();
  EXPECT_TRUE(slab.expired());
}

// Front-ends over one shared slab hold the largest arena, not the sum:
// sequential traffic to two patch front-ends reuses one max-sized block.
TEST(ServingFrontend, PatchFrontendsSharingASlabReuseOneBlock) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 90)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const patch::CompiledPatchQuantModel reference(g, plan, cfg);
  const nn::Tensor in = random_input(g.shape(0), 91);
  const nn::QTensor expect = reference.run(in);

  auto slab = std::make_shared<nn::ArenaSlab>();
  ServingConfig scfg;
  scfg.sessions = 1;
  scfg.core_budget = 1;
  const auto factory = [&](int, const std::shared_ptr<nn::ArenaSlab>& s) {
    auto model = std::make_unique<patch::CompiledPatchQuantModel>(
        g, plan, cfg, std::vector<patch::BranchQuantConfig>{},
        nn::ops::KernelTier::Simd, reference.shared_parameters());
    model->set_arena_source(s);
    return model;
  };
  ServingFrontend<patch::CompiledPatchQuantModel> frontend_a(scfg, factory,
                                                             slab);
  ServingFrontend<patch::CompiledPatchQuantModel> frontend_b(scfg, factory,
                                                             slab);
  EXPECT_EQ(frontend_a.slab(), slab);
  EXPECT_EQ(frontend_b.slab(), slab);

  expect_identical(frontend_a.run(in), expect);
  expect_identical(frontend_b.run(in), expect);
  EXPECT_EQ(slab->outstanding_leases(), 0);
  EXPECT_EQ(slab->footprint_bytes(), reference.arena_bytes());
}

// Layer-based compiled models lease run arenas the same way: a quant
// front-end (2 lanes) and a float front-end over one slab, sequential
// traffic, outputs bit-identical to owned-arena runs, and the slab holds
// max-sized blocks instead of one arena per model.
TEST(ServingFrontend, LayerBasedFrontendsLeaseFromSharedSlab) {
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
  ServingConfig qcfg;
  qcfg.sessions = 2;
  ServingFrontend<nn::CompiledQuantModel> qfrontend(
      qcfg,
      [&](int, const std::shared_ptr<nn::ArenaSlab>& s) {
        auto model = std::make_unique<nn::CompiledQuantModel>(
            g, cfg, nn::ops::KernelTier::Simd, params);
        model->set_arena_source(s);
        return model;
      },
      slab);
  ServingConfig fcfg;
  fcfg.sessions = 1;
  ServingFrontend<nn::CompiledModel> ffrontend(
      fcfg,
      [&](int, const std::shared_ptr<nn::ArenaSlab>& s) {
        auto model = std::make_unique<nn::CompiledModel>(g);
        model->set_arena_source(s);
        return model;
      },
      slab);

  for (int rep = 0; rep < 3; ++rep) {
    expect_identical(qfrontend.run(in), qexpect);
    expect_identical(ffrontend.run(in), fexpect);
  }
  // Every lease returned, and sequential traffic never held more than one
  // block at a time.
  EXPECT_EQ(slab->outstanding_leases(), 0);
  EXPECT_EQ(slab->high_water_bytes(),
            std::max(qreference.arena_bytes(), freference.arena_bytes()));
  // Two block sizes bound the footprint, strictly below the three-model
  // sum an unshared fleet would hold.
  EXPECT_LE(slab->footprint_bytes(),
            qreference.arena_bytes() + freference.arena_bytes());
}

// A slab budget spent by an open stream's retained arena: a plain request
// on the lane fails with ArenaSlabExhausted (its future carries it), the
// lane keeps serving the stream, and once the stream is closed and
// drained the same request completes bit-exactly with every lease
// returned.
TEST(ServingFrontend, SlabExhaustedByAStreamShedsRequestsUntilItCloses) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 1)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  const patch::CompiledPatchQuantModel reference(g, plan, cfg);
  const nn::Tensor in = random_input(g.shape(0), 97);
  const nn::Tensor frame = random_input(g.shape(0), 98);

  // The budget: exactly one stream's retained arena.
  std::int64_t budget = 0;
  {
    auto probe_slab = std::make_shared<nn::ArenaSlab>();
    patch::CompiledPatchQuantModel probe(g, plan, cfg);
    probe.set_arena_source(probe_slab);
    nn::streaming::StreamingSession<patch::CompiledPatchQuantModel> session;
    (void)session.next(probe, frame);
    ASSERT_EQ(probe_slab->outstanding_leases(), 1);
    budget = probe_slab->footprint_bytes();
  }
  ASSERT_GE(budget, reference.arena_bytes());

  auto slab = std::make_shared<nn::ArenaSlab>(budget);
  ServingConfig scfg;
  scfg.sessions = 1;
  scfg.core_budget = 1;
  ServingFrontend<patch::CompiledPatchQuantModel> frontend(
      scfg,
      [&](int, const std::shared_ptr<nn::ArenaSlab>& s) {
        auto model =
            std::make_unique<patch::CompiledPatchQuantModel>(g, plan, cfg);
        model->set_arena_source(s);
        return model;
      },
      slab);
  const std::uint64_t stream = frontend.open_stream();
  expect_identical(frontend.submit_stream(stream, frame).get(),
                   reference.run(frame));
  EXPECT_EQ(slab->footprint_bytes(), budget);

  auto shed = frontend.submit(in);
  EXPECT_THROW((void)shed.get(), nn::ArenaSlabExhausted);
  // The lane survived the throw: the stream's next frame still runs on its
  // retained arena.
  expect_identical(frontend.submit_stream(stream, in).get(),
                   reference.run(in));

  frontend.close_stream(stream);
  expect_identical(frontend.run(in), reference.run(in));
  EXPECT_EQ(slab->outstanding_leases(), 0);
  EXPECT_EQ(slab->footprint_bytes(), budget);
  const auto stats = frontend.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.stream_frames, 2u);
}

// Echoes its input with element 0 replaced by the model's generation, so
// a probe can tell which model a lane is bound to.
struct GenerationModel {
  std::shared_ptr<Gate> gate;
  float generation = 0.0f;
  nn::Tensor run(const nn::Tensor& in) const {
    if (gate) gate->wait();
    nn::Tensor out = in;
    out.data()[0] = generation;
    return out;
  }
};

// swap_model builds every replacement before it rebinds any lane, so a
// factory that throws midway leaves the whole fleet on the old model.
TEST(ServingFrontend, SwapWithThrowingFactoryLeavesEveryLaneOnTheOldModel) {
  constexpr int kSessions = 3;
  auto gate = std::make_shared<Gate>();
  ServingConfig cfg;
  cfg.sessions = kSessions;
  cfg.core_budget = kSessions;
  cfg.pin_lanes = false;
  ServingFrontend<GenerationModel> frontend(
      cfg, [&](int, const std::shared_ptr<nn::ArenaSlab>&) {
        return std::make_unique<GenerationModel>(GenerationModel{gate, 1.0f});
      });

  EXPECT_THROW(frontend.swap_model(
                   [&](int lane, const std::shared_ptr<nn::ArenaSlab>&) {
                     if (lane == 1) throw std::runtime_error("bad artifact");
                     return std::make_unique<GenerationModel>(
                         GenerationModel{gate, 2.0f});
                   }),
               std::runtime_error);
  EXPECT_EQ(frontend.stats().swapped_lanes, 0u);

  // One probe per lane: each lane parks on the gate with its request, so
  // all three are in flight on distinct lanes before any returns.
  std::vector<std::future<nn::Tensor>> probes;
  for (int i = 0; i < kSessions; ++i) {
    probes.push_back(frontend.submit(tagged_input(0.0f)));
  }
  EXPECT_TRUE(gate->await_waiters(kSessions));
  gate->release();
  for (auto& f : probes) EXPECT_EQ(f.get().data()[0], 1.0f);
  for (const std::uint64_t n : frontend.per_session_requests()) {
    EXPECT_EQ(n, 1u);
  }
}

TEST(ServingFrontend, RejectsWhenAdmissionQueueIsFull) {
  auto gate = std::make_shared<Gate>();
  ServingConfig cfg;
  cfg.sessions = 1;
  cfg.core_budget = 1;
  cfg.pin_lanes = false;
  cfg.max_queue_depth = 2;
  ServingFrontend<EchoModel> frontend(
      cfg, [&](int, const std::shared_ptr<nn::ArenaSlab>&) {
        return std::make_unique<EchoModel>(EchoModel{gate});
      });

  // One in flight (parked on the gate), two queued, then the bound bites.
  auto in_flight = frontend.submit(tagged_input(0.0f));
  EXPECT_TRUE(gate->await_waiters(1));
  auto queued_a = frontend.submit(tagged_input(1.0f));
  auto queued_b = frontend.submit(tagged_input(2.0f));
  auto shed_a = frontend.submit(tagged_input(3.0f));
  auto shed_b = frontend.submit(tagged_input(4.0f));

  // Rejections resolve immediately — no waiting on the gate.
  EXPECT_THROW(shed_a.get(), RejectedError);
  EXPECT_THROW(shed_b.get(), RejectedError);
  EXPECT_EQ(frontend.stats().rejected, 2u);

  gate->release();
  EXPECT_EQ(in_flight.get().data()[0], 0.0f);
  EXPECT_EQ(queued_a.get().data()[0], 1.0f);
  EXPECT_EQ(queued_b.get().data()[0], 2.0f);
  const auto stats = frontend.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.expired, 0u);
}

TEST(ServingFrontend, ExpiredRequestGetsDistinctErrorAndNeverRuns) {
  ServingConfig cfg;
  cfg.sessions = 1;
  cfg.core_budget = 1;
  cfg.pin_lanes = false;
  ServingFrontend<EchoModel> frontend(
      cfg, [&](int, const std::shared_ptr<nn::ArenaSlab>&) {
        return std::make_unique<EchoModel>();
      });

  // A deadline already in the past: the request is shed at pop, the model
  // never runs, and the error is the distinct deadline type (not a result,
  // not a generic failure).
  const auto past =
      ServingFrontend<EchoModel>::Clock::now() - std::chrono::milliseconds(1);
  auto expired = frontend.submit(tagged_input(7.0f), past);
  EXPECT_THROW(expired.get(), DeadlineExceededError);
  EXPECT_EQ(frontend.stats().expired, 1u);
  EXPECT_EQ(frontend.stats().completed, 0u);

  // The lane stays serviceable.
  auto ok = frontend.submit(tagged_input(8.0f));
  EXPECT_EQ(ok.get().data()[0], 8.0f);
  EXPECT_EQ(frontend.stats().completed, 1u);

  // A generous deadline admits normally.
  auto fine = frontend.submit(
      tagged_input(9.0f),
      ServingFrontend<EchoModel>::Clock::now() + std::chrono::seconds(30));
  EXPECT_EQ(fine.get().data()[0], 9.0f);
}

TEST(ServingFrontend, BatchSpreadsAcrossIdleSessions) {
  constexpr int kSessions = 4;
  auto state = std::make_shared<RendezvousModel::State>();
  ServingConfig cfg;
  cfg.sessions = kSessions;
  cfg.core_budget = kSessions;
  cfg.pin_lanes = false;
  ServingFrontend<RendezvousModel> frontend(
      cfg, [&](int, const std::shared_ptr<nn::ArenaSlab>&) {
        return std::make_unique<RendezvousModel>(
            RendezvousModel{state, kSessions});
      });

  // 8 inputs -> 4 chunks of 2; every chunk must land on its own lane for
  // the rendezvous to open (RendezvousModel throws after 10 s otherwise —
  // a batch queued as one entry would deadlock here, which is exactly the
  // serialization this API removes).
  std::vector<nn::Tensor> batch;
  for (int i = 0; i < 8; ++i) batch.push_back(tagged_input(i));
  auto futures = frontend.submit_batch(std::move(batch));
  ASSERT_EQ(futures.size(), 8u);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    // Futures stay in input order through the spread.
    EXPECT_EQ(futures[i].get().data()[0], static_cast<float>(i));
  }
  const auto per_lane = frontend.per_session_requests();
  int lanes_used = 0;
  std::uint64_t total = 0;
  for (const auto n : per_lane) {
    lanes_used += n > 0 ? 1 : 0;
    total += n;
  }
  EXPECT_EQ(lanes_used, kSessions);
  EXPECT_EQ(total, 8u);
  EXPECT_TRUE(frontend.submit_batch({}).empty());
}

TEST(ServingFrontend, BatchChunksShedWholeWhenQueueIsFull) {
  auto gate = std::make_shared<Gate>();
  ServingConfig cfg;
  cfg.sessions = 2;
  cfg.core_budget = 2;
  cfg.pin_lanes = false;
  cfg.max_queue_depth = 1;
  ServingFrontend<EchoModel> frontend(
      cfg, [&](int, const std::shared_ptr<nn::ArenaSlab>&) {
        return std::make_unique<EchoModel>(EchoModel{gate});
      });

  // Park both lanes one at a time (with a queue bound of one, submitting
  // the second before the first is popped would shed it instead).
  auto busy_a = frontend.submit(tagged_input(100.0f));
  EXPECT_TRUE(gate->await_waiters(1));
  auto busy_b = frontend.submit(tagged_input(101.0f));
  EXPECT_TRUE(gate->await_waiters(2));

  // 4 inputs over 2 lanes -> chunks [0,2) and [2,4): the first chunk
  // takes the one queue slot, the second is rejected whole.
  std::vector<nn::Tensor> batch;
  for (int i = 0; i < 4; ++i) batch.push_back(tagged_input(i));
  auto futures = frontend.submit_batch(std::move(batch));
  ASSERT_EQ(futures.size(), 4u);
  EXPECT_THROW(futures[2].get(), RejectedError);
  EXPECT_THROW(futures[3].get(), RejectedError);

  gate->release();
  EXPECT_EQ(futures[0].get().data()[0], 0.0f);
  EXPECT_EQ(futures[1].get().data()[0], 1.0f);
  (void)busy_a.get();
  (void)busy_b.get();
  const auto stats = frontend.stats();
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.rejected, 2u);
}

TEST(ServingFrontend, LatencyRecordingSamplesCompletedRequests) {
  ServingConfig cfg;
  cfg.sessions = 1;
  cfg.core_budget = 1;
  cfg.pin_lanes = false;
  ServingFrontend<EchoModel> frontend(
      cfg, [&](int, const std::shared_ptr<nn::ArenaSlab>&) {
        return std::make_unique<EchoModel>();
      });
  frontend.enable_latency_recording();
  for (int i = 0; i < 5; ++i) (void)frontend.run(tagged_input(i));
  const auto samples = frontend.take_latencies_ms();
  EXPECT_EQ(samples.size(), 5u);
  for (const double ms : samples) EXPECT_GE(ms, 0.0);
  EXPECT_TRUE(frontend.take_latencies_ms().empty());
}

// Stress: concurrent submitters against gated admission — the accounting
// must balance exactly (completed + rejected == submitted) and teardown
// must be clean with shed futures outstanding.
TEST(ServingFrontend, AccountingBalancesUnderConcurrentSubmitters) {
  ServingConfig cfg;
  cfg.sessions = 2;
  cfg.core_budget = 2;
  cfg.pin_lanes = false;
  cfg.max_queue_depth = 4;
  ServingFrontend<EchoModel> frontend(
      cfg, [&](int, const std::shared_ptr<nn::ArenaSlab>&) {
        return std::make_unique<EchoModel>();
      });

  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 32;
  std::atomic<int> completed{0};
  std::atomic<int> rejected{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        const float tag = static_cast<float>(t * 100 + i);
        try {
          // Synchronous run() from many threads at once: each caller gets
          // its own request's result back.
          if (frontend.run(tagged_input(tag)).data()[0] != tag) {
            mismatches.fetch_add(1);
          }
          completed.fetch_add(1);
        } catch (const RejectedError&) {
          rejected.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(completed.load() + rejected.load(), kSubmitters * kPerSubmitter);
  const auto stats = frontend.stats();
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(completed.load()));
  EXPECT_EQ(stats.rejected, static_cast<std::uint64_t>(rejected.load()));
  EXPECT_EQ(stats.pending, 0u);
  // Every completed request ran on exactly one lane.
  const auto per_lane = frontend.per_session_requests();
  EXPECT_EQ(std::accumulate(per_lane.begin(), per_lane.end(),
                            std::uint64_t{0}),
            stats.completed);
}

}  // namespace
}  // namespace qmcu
