// ServingFrontend (nn/serving/serving_frontend.h) + CoreBudget: the
// fleet-scale serving front-end must (a) partition the core budget so
// sessions x workers never oversubscribe it, (b) serve results
// bit-identical to a lone sequential model through every path (pool-run,
// degraded, batch-spread), and (c) shed load explicitly — queue-full
// submissions are rejected at admission, expired requests get a distinct
// error and are never started, and Downgrade trades intra-request
// parallelism before anything else. Fake models with gates/latches make
// the shed paths deterministic; a real compiled patch model covers the
// bit-exactness contract.
#include <gtest/gtest.h>

#include <limits>

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
#include <thread>
#include <vector>

#include "models/zoo.h"
#include "nn/rng.h"
#include "nn/runtime/cpu_affinity.h"
#include "nn/serving/serving_frontend.h"
#include "patch/compiled_patch_model.h"
#include "patch/mcunetv2.h"
#include "quant/calibration.h"

namespace qmcu {
namespace {

using nn::serving::CoreBudget;
using nn::serving::DeadlineExceededError;
using nn::serving::RejectedError;
using nn::serving::ServingConfig;
using nn::serving::ServingFrontend;
using nn::serving::ShedPolicy;

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

// Pool-runnable fake: records which entry point served each request, so
// the Downgrade policy's choice is observable.
struct PoolPathCounters {
  std::atomic<int> pool_runs{0};
  std::atomic<int> seq_runs{0};
};
struct FakePoolModel {
  std::shared_ptr<Gate> gate;
  std::shared_ptr<PoolPathCounters> counters;
  nn::Tensor run(const nn::Tensor& in) const {
    if (gate) gate->wait();
    counters->seq_runs.fetch_add(1);
    return in;
  }
  nn::Tensor run(const nn::Tensor& in, nn::WorkerPool*) const {
    if (gate) gate->wait();
    counters->pool_runs.fetch_add(1);
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

TEST(CoreBudget, PartitionRespectsTheBudget) {
  const CoreBudget even = CoreBudget::partition(2, 8);
  EXPECT_EQ(even.workers_per_session, 4);
  EXPECT_EQ(even.threads(), 8);

  const CoreBudget uneven = CoreBudget::partition(3, 8);
  EXPECT_EQ(uneven.workers_per_session, 2);
  EXPECT_LE(uneven.threads(), 8);

  // More lanes than cores: single-worker lanes time-sharing cores.
  const CoreBudget oversub = CoreBudget::partition(8, 4);
  EXPECT_EQ(oversub.workers_per_session, 1);
  EXPECT_EQ(oversub.threads(), 8);
  for (int lane = 0; lane < 8; ++lane) {
    const auto cpus = oversub.lane_cpus(lane);
    ASSERT_EQ(cpus.size(), 1u);
    EXPECT_EQ(cpus[0], lane % 4);
  }

  // Detected budget is always >= 1 and internally consistent.
  const CoreBudget detected = CoreBudget::partition(2, 0);
  EXPECT_GE(detected.total_cores, 1);
  EXPECT_GE(detected.workers_per_session, 1);
  EXPECT_LE(detected.sessions * detected.workers_per_session,
            std::max(detected.total_cores, detected.sessions));
}

TEST(CoreBudget, LaneCpusAreDisjointAndCoverTheBudget) {
  for (const auto& [sessions, cores] : std::vector<std::pair<int, int>>{
           {2, 8}, {3, 8}, {4, 4}, {1, 6}}) {
    const CoreBudget b = CoreBudget::partition(sessions, cores);
    std::set<int> seen;
    for (int lane = 0; lane < sessions; ++lane) {
      for (const int c : b.lane_cpus(lane)) {
        EXPECT_GE(c, 0);
        EXPECT_LT(c, cores);
        // Disjoint: no cpu appears in two lanes' slices.
        EXPECT_TRUE(seen.insert(c).second)
            << "cpu " << c << " assigned twice (" << sessions << " lanes, "
            << cores << " cores)";
      }
    }
    // Every core is some lane's (workers + remainder slack).
    EXPECT_EQ(static_cast<int>(seen.size()), cores);
  }
}

// The bit-exactness contract end to end: a front-end with intra-request
// slices (forced core budget 4 over 2 lanes -> 2-worker pools even on a
// 1-core host), pinning on, slab-leased arenas — every completed result
// identical to the lone sequential model.
TEST(ServingFrontend, PatchModelBitExactVsSequential) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 1)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const auto params = nn::QuantizedParameters::build_shared(g, cfg);
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  const patch::CompiledPatchQuantModel reference(g, plan, cfg, {},
                                                 nn::ops::KernelTier::Simd,
                                                 params);

  ServingConfig scfg;
  scfg.sessions = 2;
  scfg.core_budget = 4;  // forces 2-worker slices regardless of host
  scfg.pin_lanes = true;
  using Frontend = ServingFrontend<patch::CompiledPatchQuantModel>;
  static_assert(Frontend::kPoolRunnable);
  Frontend frontend(
      scfg, [&](int, const std::shared_ptr<nn::ArenaSlab>& slab) {
        auto model = std::make_unique<patch::CompiledPatchQuantModel>(
            g, plan, cfg, std::vector<patch::BranchQuantConfig>{},
            nn::ops::KernelTier::Simd, params);
        model->set_arena_source(slab);
        return model;
      });
  EXPECT_EQ(frontend.budget().workers_per_session, 2);

  std::vector<nn::Tensor> inputs;
  std::vector<nn::QTensor> expected;
  for (std::uint64_t seed = 2; seed < 8; ++seed) {
    inputs.push_back(random_input(g.shape(0), seed));
    expected.push_back(reference.run(inputs.back()));
  }
  std::vector<std::future<nn::QTensor>> futures;
  for (const nn::Tensor& in : inputs) futures.push_back(frontend.submit(in));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const nn::QTensor got = futures[i].get();
    ASSERT_EQ(got.shape(), expected[i].shape());
    for (std::size_t j = 0; j < got.data().size(); ++j) {
      ASSERT_EQ(static_cast<int>(got.data()[j]),
                static_cast<int>(expected[i].data()[j]))
          << "request " << i << " element " << j;
    }
  }
  const auto stats = frontend.stats();
  EXPECT_EQ(stats.completed, inputs.size());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.expired, 0u);
  EXPECT_EQ(frontend.slab()->outstanding_leases(), 0);
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
  scfg.core_budget = 4;  // 2-worker slices: frames take the pooled path
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

TEST(ServingFrontend, DowngradeShedsIntraRequestParallelismFirst) {
  auto gate = std::make_shared<Gate>();
  auto counters = std::make_shared<PoolPathCounters>();
  ServingConfig cfg;
  cfg.sessions = 1;
  cfg.core_budget = 2;  // 2-worker slice -> the pool path exists
  cfg.pin_lanes = false;
  cfg.policy = ShedPolicy::Downgrade;
  cfg.shed_queue_depth = 2;
  cfg.max_queue_depth = 8;
  ServingFrontend<FakePoolModel> frontend(
      cfg, [&](int, const std::shared_ptr<nn::ArenaSlab>&) {
        return std::make_unique<FakePoolModel>(FakePoolModel{gate, counters});
      });

  // First request pops with an empty backlog -> full pool path; it parks
  // on the gate while four more queue up behind it.
  auto first = frontend.submit(tagged_input(0.0f));
  EXPECT_TRUE(gate->await_waiters(1));
  std::vector<std::future<nn::Tensor>> rest;
  for (int i = 1; i <= 4; ++i) rest.push_back(frontend.submit(tagged_input(i)));

  gate->release();
  (void)first.get();
  for (auto& f : rest) (void)f.get();

  // Pop order is deterministic on one lane: backlog depths seen are
  // 4, 3 (>= shed -> degraded sequential), then 1, 0 (pool path again).
  EXPECT_EQ(counters->seq_runs.load(), 2);
  EXPECT_EQ(counters->pool_runs.load(), 3);
  const auto stats = frontend.stats();
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.degraded, 2u);
}

TEST(ServingFrontend, BatchSpreadsAcrossIdleSessions) {
  constexpr int kSessions = 4;
  auto state = std::make_shared<RendezvousModel::State>();
  ServingConfig cfg;
  cfg.sessions = kSessions;
  cfg.core_budget = kSessions;  // 1-worker lanes
  cfg.pin_lanes = false;
  ServingFrontend<RendezvousModel> frontend(
      cfg, [&](int, const std::shared_ptr<nn::ArenaSlab>&) {
        return std::make_unique<RendezvousModel>(
            RendezvousModel{state, kSessions});
      });

  // 8 inputs -> 4 chunks of 2; every chunk must land on its own lane for
  // the rendezvous to open (RendezvousModel throws after 10 s otherwise —
  // a SessionPool-style single-entry batch would deadlock here, which is
  // exactly the serialization this API removes).
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
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        auto f = frontend.submit(tagged_input(t * 100 + i));
        try {
          (void)f.get();
          completed.fetch_add(1);
        } catch (const RejectedError&) {
          rejected.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();

  EXPECT_EQ(completed.load() + rejected.load(), kSubmitters * kPerSubmitter);
  const auto stats = frontend.stats();
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(completed.load()));
  EXPECT_EQ(stats.rejected, static_cast<std::uint64_t>(rejected.load()));
  EXPECT_EQ(stats.pending, 0u);
}

}  // namespace
}  // namespace qmcu
