// WorkerPool (nn/runtime/worker_pool.h): run_graph over independent
// chunk tasks must cover every index exactly once for any worker count,
// chunking and load shape; keep lane indices inside [0, W); run inline on
// one worker; let idle workers steal a skewed load; and propagate task
// exceptions to the caller. Over dependency edges it must respect them for
// every worker count, publish predecessor writes to successors, abort
// cleanly on task exceptions and reject cycles. cpu_affinity.h: the
// allowed CPU set and best-effort pinning.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "nn/runtime/cpu_affinity.h"
#include "nn/runtime/worker_pool.h"

namespace qmcu {
namespace {

// Runs body(begin, end, lane) over [0, count) in chunks of `grain` (the
// last one may be short): one task per chunk, no dependency edges.
template <class Body>
void run_chunks(nn::WorkerPool& pool, std::int64_t count, std::int64_t grain,
                const Body& body) {
  nn::TaskGraph graph;
  for (std::int64_t b = 0; b < count; b += grain) {
    const std::int64_t e = std::min(b + grain, count);
    graph.add([&body, b, e](int lane) { body(b, e, lane); });
  }
  pool.run_graph(graph);
}

TEST(WorkerPool, CoversEveryIndexExactlyOnce) {
  for (const int workers : {1, 2, 3, 4, 8}) {
    nn::WorkerPool pool(workers);
    for (const std::int64_t count : {0, 1, 3, 7, 64, 1000}) {
      for (const std::int64_t grain : {1, 2, 5, 64, 2000}) {
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(count));
        for (auto& h : hits) h.store(0);
        run_chunks(pool, count, grain,
                   [&](std::int64_t b, std::int64_t e, int lane) {
                     ASSERT_GE(lane, 0);
                     ASSERT_LT(lane, pool.num_workers());
                     ASSERT_LT(b, e);
                     for (std::int64_t i = b; i < e; ++i) {
                       hits[static_cast<std::size_t>(i)].fetch_add(1);
                     }
                   });
        for (std::int64_t i = 0; i < count; ++i) {
          ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
              << "index " << i << " workers " << workers << " grain "
              << grain;
        }
      }
    }
  }
}

TEST(WorkerPool, SingleWorkerRunsInlineOnCaller) {
  nn::WorkerPool pool(1);
  EXPECT_EQ(pool.num_workers(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  run_chunks(pool, 10, 3, [&](std::int64_t b, std::int64_t e, int lane) {
    EXPECT_EQ(lane, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    calls += static_cast<int>(e - b);
  });
  EXPECT_EQ(calls, 10);
}

TEST(WorkerPool, StealingBalancesSkewedLoads) {
  // One pathologically expensive chunk at the front of lane 0's deque: the
  // other lanes must steal the rest of lane 0's work instead of idling.
  nn::WorkerPool pool(4);
  if (pool.num_workers() < 2) GTEST_SKIP() << "needs >= 2 workers";
  std::mutex mu;
  std::set<int> lanes_seen;
  std::atomic<std::int64_t> done{0};
  run_chunks(pool, 64, 1, [&](std::int64_t b, std::int64_t, int lane) {
    if (b == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      lanes_seen.insert(lane);
    }
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 64);
  // All chunks completed; on a multi-core host several lanes participate.
  // (On a single-core CI runner the OS may or may not schedule the helper
  // threads before the caller drains everything, so only assert coverage.)
  EXPECT_GE(static_cast<int>(lanes_seen.size()), 1);
}

TEST(WorkerPool, PropagatesBodyExceptions) {
  for (const int workers : {1, 4}) {
    nn::WorkerPool pool(workers);
    EXPECT_THROW(run_chunks(pool, 16, 1,
                            [&](std::int64_t b, std::int64_t, int) {
                              if (b == 7) throw std::runtime_error("boom");
                            }),
                 std::runtime_error);
    // The pool must stay usable after a failed job.
    std::atomic<std::int64_t> n{0};
    run_chunks(pool, 16, 1, [&](std::int64_t b, std::int64_t e, int) {
      n.fetch_add(e - b);
    });
    EXPECT_EQ(n.load(), 16);
  }
}

TEST(WorkerPool, BackToBackJobsReuseThreads) {
  nn::WorkerPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::int64_t> sum{0};
    run_chunks(pool, 100, 7, [&](std::int64_t b, std::int64_t e, int) {
      for (std::int64_t i = b; i < e; ++i) sum.fetch_add(i);
    });
    EXPECT_EQ(sum.load(), 100 * 99 / 2);
  }
}

TEST(WorkerPool, ClampsWorkerCount) {
  nn::WorkerPool pool(0);
  EXPECT_EQ(pool.num_workers(), 1);
}

// --- task graphs -------------------------------------------------------------

TEST(TaskGraph, ChainRunsInDependencyOrder) {
  for (const int workers : {1, 2, 4}) {
    nn::WorkerPool pool(workers);
    nn::TaskGraph graph;
    std::vector<int> order;
    std::mutex mu;
    std::vector<int> tasks;
    for (int i = 0; i < 16; ++i) {
      tasks.push_back(graph.add([&order, &mu, i](int) {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(i);
      }));
      if (i > 0) graph.depend(tasks[static_cast<std::size_t>(i)],
                              tasks[static_cast<std::size_t>(i - 1)]);
    }
    pool.run_graph(graph);
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(TaskGraph, DiamondPublishesPredecessorWrites) {
  // a -> {b, c} -> d. b and c read what a wrote; d reads both — without
  // any synchronisation beyond the dependency edges.
  for (const int workers : {1, 2, 4, 8}) {
    nn::WorkerPool pool(workers);
    for (int round = 0; round < 20; ++round) {
      nn::TaskGraph graph;
      int x = 0, b_saw = 0, c_saw = 0, d_sum = 0;
      const int a = graph.add([&](int) { x = 41 + round; });
      const int b = graph.add([&](int) { b_saw = x + 1; });
      const int c = graph.add([&](int) { c_saw = x + 2; });
      const int d = graph.add([&](int) { d_sum = b_saw + c_saw; });
      graph.depend(b, a);
      graph.depend(c, a);
      graph.depend(d, b);
      graph.depend(d, c);
      pool.run_graph(graph);
      EXPECT_EQ(d_sum, 2 * (41 + round) + 3);
    }
  }
}

TEST(TaskGraph, WideFanRunsEveryTaskOnce) {
  nn::WorkerPool pool(4);
  nn::TaskGraph graph;
  constexpr int kTasks = 200;
  std::vector<std::atomic<int>> hits(kTasks);
  for (auto& h : hits) h.store(0);
  const int root = graph.add([](int) {});
  std::vector<int> mids;
  for (int i = 1; i < kTasks - 1; ++i) {
    const int t = graph.add([&hits, i](int lane) {
      EXPECT_GE(lane, 0);
      EXPECT_LT(lane, 4);
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    graph.depend(t, root);
    mids.push_back(t);
  }
  const int join = graph.add(
      [&hits](int) { hits[kTasks - 1].fetch_add(1); });
  for (const int t : mids) graph.depend(join, t);
  hits[0].fetch_add(1);  // stands in for the root
  pool.run_graph(graph);
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
  }
}

TEST(TaskGraph, ExceptionAbortsAndPoolStaysUsable) {
  for (const int workers : {1, 4}) {
    nn::WorkerPool pool(workers);
    nn::TaskGraph graph;
    std::atomic<bool> downstream_ran{false};
    const int boom = graph.add(
        [](int) { throw std::runtime_error("boom"); });
    const int after = graph.add(
        [&](int) { downstream_ran.store(true); });
    graph.depend(after, boom);
    EXPECT_THROW(pool.run_graph(graph), std::runtime_error);
    EXPECT_FALSE(downstream_ran.load())
        << "successors of a failed task must not run";
    // The pool must come back clean for the next job.
    std::atomic<std::int64_t> n{0};
    run_chunks(pool, 16, 1, [&](std::int64_t b, std::int64_t e, int) {
      n.fetch_add(e - b);
    });
    EXPECT_EQ(n.load(), 16);
  }
}

TEST(TaskGraph, RejectsCycles) {
  for (const int workers : {1, 2}) {
    nn::WorkerPool pool(workers);
    nn::TaskGraph graph;
    const int a = graph.add([](int) {});
    const int b = graph.add([](int) {});
    const int c = graph.add([](int) {});  // keeps one task ready
    (void)c;
    graph.depend(a, b);
    graph.depend(b, a);
    EXPECT_THROW(pool.run_graph(graph), std::exception);
  }
}

TEST(TaskGraph, GraphsReuseThePoolBackToBack) {
  nn::WorkerPool pool(3);
  for (int round = 0; round < 30; ++round) {
    nn::TaskGraph graph;
    std::atomic<int> sum{0};
    std::vector<int> layer1;
    for (int i = 0; i < 6; ++i) {
      layer1.push_back(graph.add([&sum](int) { sum.fetch_add(1); }));
    }
    const int join = graph.add([&sum](int) { sum.fetch_add(100); });
    for (const int t : layer1) graph.depend(join, t);
    pool.run_graph(graph);
    EXPECT_EQ(sum.load(), 106);
  }
}

// Caller-chosen chunks (the shape patch::weighted_chunks produces): one
// task per range, every index run once.
TEST(WorkerPool, IndexRangeTasksCoverCallerChunks) {
  for (const int workers : {1, 3}) {
    nn::WorkerPool pool(workers);
    const std::vector<nn::IndexRange> ranges = {
        {0, 3}, {3, 4}, {4, 10}, {10, 11}};
    std::vector<std::atomic<int>> hits(11);
    for (auto& h : hits) h.store(0);
    nn::TaskGraph graph;
    for (const nn::IndexRange& r : ranges) {
      graph.add([&hits, r](int) {
        for (std::int64_t i = r.begin; i < r.end; ++i) {
          hits[static_cast<std::size_t>(i)].fetch_add(1);
        }
      });
    }
    pool.run_graph(graph);
    for (int i = 0; i < 11; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
    }
  }
}

TEST(CpuAffinity, AllowedCpusAreTheUsableSet) {
  const std::vector<int> allowed = nn::runtime::allowed_cpus();
  ASSERT_FALSE(allowed.empty());
  EXPECT_EQ(static_cast<int>(allowed.size()), nn::runtime::usable_cpus());
  EXPECT_GE(allowed.front(), 0);
  EXPECT_TRUE(std::is_sorted(allowed.begin(), allowed.end()));
  EXPECT_EQ(std::adjacent_find(allowed.begin(), allowed.end()),
            allowed.end());
}

TEST(CpuAffinity, PinCurrentThreadMatchesPlatformSupport) {
  // Out-of-range and empty cpu lists are always refused.
  EXPECT_FALSE(nn::runtime::pin_current_thread({}));
  const std::vector<int> bogus = {1 << 20};
  EXPECT_FALSE(nn::runtime::pin_current_thread(bogus));
  // A CPU of the allowed set pins wherever affinity exists; the thread's
  // full mask is restored afterwards.
  const std::vector<int> allowed = nn::runtime::allowed_cpus();
  const std::vector<int> first = {allowed.front()};
  EXPECT_EQ(nn::runtime::pin_current_thread(first),
            nn::runtime::affinity_supported());
  if (nn::runtime::affinity_supported()) {
    EXPECT_EQ(nn::runtime::allowed_cpus(), first);
    EXPECT_TRUE(nn::runtime::pin_current_thread(allowed));
    EXPECT_EQ(nn::runtime::allowed_cpus(), allowed);
  }
}

}  // namespace
}  // namespace qmcu
