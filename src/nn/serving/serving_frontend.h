// serving_frontend.h — the fleet-scale serving front-end.
//
// ServingFrontend composes the repo's two parallelism layers under one
// CoreBudget (core_budget.h):
//
//   * Inter-request: a SessionPool of pre-compiled sessions, one serving
//     thread per lane.
//   * Intra-request: each lane owns a WorkerPool slice of
//     workers_per_session lanes (the serving thread is worker 0), so a
//     pool-runnable model (CompiledPatchModel / CompiledPatchQuantModel
//     run(input, WorkerPool*)) pipelines one request inside its slice
//     while other lanes serve other requests. Plain run(input) models
//     simply ignore the slice machinery.
//
// Lanes are pinned to disjoint CPU slices (best-effort): a lane's
// per-worker arenas, scratch and weight-panel caches stay resident in its
// slice's private caches instead of migrating, and one lane's work cannot
// be scheduled on top of another's. Results are bit-identical to
// sequential single-model runs in every configuration — pinning, worker
// count, degradation and batch spreading only change *where and when* a
// request runs, never its arithmetic (the PR-3/4 parallel bit-exactness
// contract).
//
// Admission control is explicit and all-or-nothing per request:
//   * bounded queue — submissions beyond max_queue_depth fail immediately
//     with RejectedError (the future carries it; nothing was queued);
//   * per-request deadlines — a request still queued when its deadline
//     passes is never started: its future carries DeadlineExceededError,
//     by construction there is no partial result;
//   * load shedding — ShedPolicy::Downgrade trades intra-request
//     parallelism for throughput once the backlog crosses
//     shed_queue_depth (a degraded request runs sequentially on its lane).
//
// submit_batch spreads a large batch across lanes (contiguous chunks, one
// queue entry each) instead of serializing the whole batch on whichever
// single lane pops it — idle lanes start immediately, busy lanes pick up
// remaining chunks as they free.
//
// swap_model() hot-swaps the whole fleet under traffic, one lane at a
// time, without dropping an admitted request — pair it with a factory over
// a mapped plan artifact (nn/plan_artifact.h) for zero-downtime deploys
// where every lane views one shared weight mapping.
//
// Streams (models with run_streaming, i.e. the patch models): open_stream
// pins a StreamingSession to a lane round-robin; submit_stream routes each
// frame to that lane IN FIFO ORDER (SessionPool::submit_raw_to), so the
// stream's retained arena and diff baseline stay coherent — and frames see
// the previous frame's work. Stream frames deliberately bypass admission
// control (bounded queue, deadlines, downgrade): dropping or reordering a
// frame would force a full recompute and cost more than running it, and a
// degraded (different worker count) run is incompatible with the stream's
// pinned arena layout. Back-pressure for streams belongs at the source
// (skip capture frames, not queued ones).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include <map>

#include "nn/check.h"
#include "nn/runtime/cpu_affinity.h"
#include "nn/runtime/session_pool.h"
#include "nn/runtime/worker_pool.h"
#include "nn/serving/core_budget.h"
#include "nn/streaming/streaming_session.h"

namespace qmcu::nn::serving {

// The admission queue was full: the request was never enqueued.
class RejectedError : public std::runtime_error {
 public:
  explicit RejectedError(std::size_t depth)
      : std::runtime_error("request rejected: admission queue full (" +
                           std::to_string(depth) + " queued)") {}
};

// The request's deadline passed while it waited in the queue: it was
// never started (no partial result exists anywhere).
class DeadlineExceededError : public std::runtime_error {
 public:
  DeadlineExceededError()
      : std::runtime_error("request deadline exceeded before execution") {}
};

// A point-in-time view of the front-end's accounting. completed +
// rejected + expired equals the number of submitted requests once traffic
// has drained.
struct ServingStats {
  std::uint64_t completed = 0;  // ran to completion (incl. degraded)
  std::uint64_t rejected = 0;   // shed at admission (queue full)
  std::uint64_t expired = 0;    // shed at pop (deadline passed)
  std::uint64_t degraded = 0;   // completed sequentially under Downgrade
  std::uint64_t swapped_lanes = 0;  // lane rebinds completed by swap_model
  std::uint64_t streams = 0;        // streams opened (lifetime total)
  std::uint64_t stream_frames = 0;  // stream frames completed
  std::size_t pending = 0;      // queued, not yet popped
  int idle_sessions = 0;        // lanes with no request in flight
  int pinned_lanes = 0;         // lanes whose serving thread pinned OK
};

template <class Model>
class ServingFrontend {
 public:
  using Output = typename InferenceSession<Model>::Output;
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;
  // Builds lane `lane`'s model; `slab` is the pool's shared arena slab
  // (wire it via model->set_arena_source(slab) to cap fleet arena memory).
  using Factory = std::function<std::unique_ptr<Model>(
      int lane, const std::shared_ptr<ArenaSlab>&)>;

  // True when Model has an intra-request parallel entry point.
  static constexpr bool kPoolRunnable =
      requires(const Model& m, const Tensor& t, WorkerPool* p) {
        m.run(t, p);
      };

  // True when Model supports temporal patch reuse (the patch models'
  // run_streaming); gates the stream API below.
  static constexpr bool kStreamable =
      requires(const Model& m, const Tensor& t, WorkerPool* p,
               patch::StreamState& s) {
        m.run_streaming(t, p, s);
      };

  // No deadline for this request.
  static constexpr TimePoint kNoDeadline = TimePoint{};

  explicit ServingFrontend(const ServingConfig& cfg, const Factory& factory,
                           std::shared_ptr<ArenaSlab> slab = nullptr)
      : cfg_(cfg),
        budget_(CoreBudget::partition(cfg.sessions, cfg.core_budget)) {
    QMCU_REQUIRE(cfg.policy != ShedPolicy::Downgrade ||
                     cfg.max_queue_depth == 0 ||
                     cfg.shed_queue_depth <= cfg.max_queue_depth,
                 "Downgrade needs shed threshold <= queue bound, or it "
                 "could never trigger");
    // Intra-request slices first: each lane's WorkerPool spawns its
    // (workers_per_session - 1) parked threads and pins them to the
    // lane's CPU slice before any traffic exists. A 1-worker slice needs
    // no pool — run(input, nullptr) is the sequential path.
    if constexpr (kPoolRunnable) {
      if (budget_.workers_per_session > 1) {
        pools_.reserve(static_cast<std::size_t>(cfg.sessions));
        for (int lane = 0; lane < cfg.sessions; ++lane) {
          pools_.push_back(
              std::make_unique<WorkerPool>(budget_.workers_per_session));
          if (cfg_.pin_lanes) {
            const std::vector<int> cpus = budget_.lane_cpus(lane);
            (void)pools_.back()->pin_workers(cpus);
          }
        }
      }
    }
    // The wrapped SessionPool: its factory builds lane models in lane
    // order on this thread; its lane-start hook pins each serving thread
    // (worker 0 of the lane's slice) to the lane's CPUs.
    int next_lane = 0;
    pool_ = std::make_unique<SessionPool<Model>>(
        cfg.sessions,
        typename SessionPool<Model>::SlabFactory(
            [&factory, &next_lane](const std::shared_ptr<ArenaSlab>& s) {
              return factory(next_lane++, s);
            }),
        std::move(slab), [this](std::size_t lane) {
          if (!cfg_.pin_lanes) return;
          const std::vector<int> cpus =
              budget_.lane_cpus(static_cast<int>(lane));
          if (runtime::pin_current_thread(cpus)) {
            pinned_lanes_.fetch_add(1, std::memory_order_relaxed);
          }
        });
    slab_ = pool_->slab();
  }

  ServingFrontend(const ServingFrontend&) = delete;
  ServingFrontend& operator=(const ServingFrontend&) = delete;

  // Enqueues one request under the config's default deadline. The future
  // resolves with the output, or with RejectedError (shed at admission),
  // DeadlineExceededError (shed at pop), or whatever the model threw.
  std::future<Output> submit(Tensor input) {
    return submit(std::move(input), default_deadline());
  }

  std::future<Output> submit(Tensor input, TimePoint deadline) {
    auto promise = std::make_shared<std::promise<Output>>();
    std::future<Output> result = promise->get_future();
    const TimePoint enqueued = Clock::now();
    auto task = [this, promise, deadline, enqueued,
                 input = std::move(input)](std::size_t lane) {
      run_request(lane, input, deadline, enqueued, *promise);
    };
    if (!enqueue(std::move(task))) reject(*promise);
    return result;
  }

  // Batch spreading: `inputs` is split into min(size, sessions)
  // contiguous chunks, each one queue entry, so idle lanes run chunks
  // concurrently instead of one lane serializing the whole batch (the
  // SessionPool::submit_batch behaviour, which optimizes wakeups, not
  // spread). Futures are in input order; admission (and the deadline) is
  // per chunk, so an oversubscribed queue sheds trailing chunks whole.
  std::vector<std::future<Output>> submit_batch(std::vector<Tensor> inputs) {
    return submit_batch(std::move(inputs), default_deadline());
  }

  std::vector<std::future<Output>> submit_batch(std::vector<Tensor> inputs,
                                                TimePoint deadline) {
    struct BatchState {
      std::vector<Tensor> inputs;
      std::vector<std::promise<Output>> promises;
    };
    std::vector<std::future<Output>> results;
    const std::size_t n = inputs.size();
    if (n == 0) return results;
    auto state = std::make_shared<BatchState>();
    state->inputs = std::move(inputs);
    state->promises.resize(n);
    results.reserve(n);
    for (auto& p : state->promises) results.push_back(p.get_future());

    const TimePoint enqueued = Clock::now();
    const std::size_t chunks =
        std::min<std::size_t>(n, static_cast<std::size_t>(num_sessions()));
    const std::size_t base = n / chunks;
    const std::size_t extra = n % chunks;
    std::size_t begin = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t len = base + (c < extra ? 1 : 0);
      const std::size_t end = begin + len;
      auto task = [this, state, deadline, enqueued, begin,
                   end](std::size_t lane) {
        for (std::size_t i = begin; i < end; ++i) {
          run_request(lane, state->inputs[i], deadline, enqueued,
                      state->promises[i]);
        }
      };
      if (!enqueue(std::move(task))) {
        for (std::size_t i = begin; i < end; ++i) {
          reject(state->promises[i]);
        }
      }
      begin = end;
    }
    return results;
  }

  // Synchronous convenience: submit + wait.
  Output run(const Tensor& input) { return submit(input).get(); }

  // Hot-swaps the fleet's model under live traffic, one lane at a time:
  // lane i's replacement is built on THIS thread (compilation, prepack or
  // artifact-bundle adoption never stall a serving thread), then installed
  // by lane i's own serving thread between two requests (the drain →
  // rebind → resume contract of SessionPool::swap_session), before lane
  // i+1 starts. Requests admitted before the call complete on whichever
  // model generation their lane runs when they are claimed; requests
  // admitted after it run on the new model once their lane has swapped.
  // Nothing is dropped either way. With `factory` closing over a mapped
  // plan artifact (nn::load_compiled / PlanArtifact::make_quant_model)
  // this is the fleet's zero-downtime deploy: N lanes rebind to one new
  // shared mapping while the old mapping drains away with its last lane.
  void swap_model(const Factory& factory) {
    for (int lane = 0; lane < num_sessions(); ++lane) {
      pool_->swap_session(
          static_cast<std::size_t>(lane),
          [&factory, lane](const std::shared_ptr<ArenaSlab>& s) {
            return factory(lane, s);
          });
      swapped_lanes_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Opens a frame stream and pins it to a lane (round-robin). Every frame
  // of this stream runs on that lane, in submission order; the lane keeps
  // serving ordinary requests interleaved between frames.
  std::uint64_t open_stream(streaming::StreamingConfig scfg = {})
    requires kStreamable
  {
    std::lock_guard<std::mutex> lock(stream_mu_);
    const std::uint64_t id = next_stream_id_++;
    StreamEntry entry;
    entry.lane = next_stream_lane_;
    next_stream_lane_ = (next_stream_lane_ + 1) %
                        static_cast<std::size_t>(num_sessions());
    entry.session =
        std::make_shared<streaming::StreamingSession<Model>>(scfg);
    streams_.emplace(id, std::move(entry));
    opened_streams_.fetch_add(1, std::memory_order_relaxed);
    return id;
  }

  // Runs one frame of stream `id` on its pinned lane. No admission control
  // (see the header comment); the future resolves with the frame's output
  // or whatever the model threw. Throws std::out_of_range for an unknown
  // (or closed) stream id.
  std::future<Output> submit_stream(std::uint64_t id, Tensor frame)
    requires kStreamable
  {
    StreamEntry entry = stream_entry(id);
    auto promise = std::make_shared<std::promise<Output>>();
    std::future<Output> result = promise->get_future();
    pool_->submit_raw_to(
        entry.lane, [this, session = entry.session, promise,
                     frame = std::move(frame)](std::size_t lane) {
          try {
            WorkerPool* pool =
                pools_.empty() ? nullptr : pools_[lane].get();
            Output out = session->next(pool_->session(lane).model(), frame,
                                       pool);
            stream_frames_.fetch_add(1, std::memory_order_relaxed);
            promise->set_value(std::move(out));
          } catch (...) {
            promise->set_exception(std::current_exception());
          }
        });
    return result;
  }

  // Point-in-time copy of the stream's skip/drift counters. Routed through
  // the stream's lane (after all frames submitted before this call), so it
  // never races the lane's own updates.
  std::future<streaming::StreamingStats> stream_stats(std::uint64_t id)
    requires kStreamable
  {
    StreamEntry entry = stream_entry(id);
    auto promise =
        std::make_shared<std::promise<streaming::StreamingStats>>();
    std::future<streaming::StreamingStats> result = promise->get_future();
    pool_->submit_raw_to(entry.lane,
                         [session = entry.session, promise](std::size_t) {
                           promise->set_value(session->stats());
                         });
    return result;
  }

  // Forgets the stream. Frames already queued still run (they share
  // ownership of the session); new submit_stream calls throw.
  void close_stream(std::uint64_t id)
    requires kStreamable
  {
    std::lock_guard<std::mutex> lock(stream_mu_);
    streams_.erase(id);
  }

  [[nodiscard]] ServingStats stats() const {
    ServingStats s;
    s.completed = completed_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.expired = expired_.load(std::memory_order_relaxed);
    s.degraded = degraded_.load(std::memory_order_relaxed);
    s.swapped_lanes = swapped_lanes_.load(std::memory_order_relaxed);
    s.streams = opened_streams_.load(std::memory_order_relaxed);
    s.stream_frames = stream_frames_.load(std::memory_order_relaxed);
    s.pending = pool_->pending();
    s.idle_sessions = pool_->idle_sessions();
    s.pinned_lanes = pinned_lanes_.load(std::memory_order_relaxed);
    return s;
  }

  [[nodiscard]] const CoreBudget& budget() const { return budget_; }
  [[nodiscard]] const ServingConfig& config() const { return cfg_; }
  [[nodiscard]] int num_sessions() const { return pool_->num_sessions(); }
  [[nodiscard]] const std::shared_ptr<ArenaSlab>& slab() const {
    return slab_;
  }
  // Per-lane request counts (read when no traffic is in flight).
  [[nodiscard]] std::vector<std::uint64_t> per_session_requests() const {
    return pool_->per_session_requests();
  }

  // Opt-in queue-to-completion latency sampling (for harnesses computing
  // p50/p99; off by default to keep the serving path mutex-free).
  void enable_latency_recording() {
    record_latency_.store(true, std::memory_order_release);
  }
  [[nodiscard]] std::vector<double> take_latencies_ms() {
    std::lock_guard<std::mutex> lock(latency_mu_);
    return std::exchange(latencies_ms_, {});
  }

 private:
  [[nodiscard]] TimePoint default_deadline() const {
    if (cfg_.default_deadline.count() == 0) return kNoDeadline;
    return Clock::now() + cfg_.default_deadline;
  }

  [[nodiscard]] bool enqueue(runtime::TaskQueue::Task task) {
    if (cfg_.max_queue_depth == 0) {
      pool_->submit_raw(std::move(task));
      return true;
    }
    return pool_->try_submit_raw(std::move(task), cfg_.max_queue_depth);
  }

  void reject(std::promise<Output>& promise) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    promise.set_exception(
        std::make_exception_ptr(RejectedError(cfg_.max_queue_depth)));
  }

  // Runs on lane `lane`'s serving thread: deadline gate, then the model.
  void run_request(std::size_t lane, const Tensor& input, TimePoint deadline,
                   TimePoint enqueued, std::promise<Output>& promise) {
    if (deadline != kNoDeadline && Clock::now() > deadline) {
      expired_.fetch_add(1, std::memory_order_relaxed);
      promise.set_exception(std::make_exception_ptr(DeadlineExceededError()));
      return;
    }
    try {
      Output out = execute(lane, input);
      completed_.fetch_add(1, std::memory_order_relaxed);
      record(enqueued);
      promise.set_value(std::move(out));
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
  }

  Output execute(std::size_t lane, const Tensor& input) {
    InferenceSession<Model>& session = pool_->session(lane);
    if constexpr (kPoolRunnable) {
      if (!pools_.empty() && !should_degrade()) {
        return session.run(input, pools_[lane].get());
      }
    }
    return session.run(input);
  }

  [[nodiscard]] bool should_degrade() {
    if (cfg_.policy != ShedPolicy::Downgrade) return false;
    if (pool_->pending() < cfg_.shed_queue_depth) return false;
    degraded_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  void record(TimePoint enqueued) {
    if (!record_latency_.load(std::memory_order_acquire)) return;
    std::lock_guard<std::mutex> lock(latency_mu_);
    latencies_ms_.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - enqueued)
            .count());
  }

  // A stream's lane pin plus its session (shared with queued frame tasks,
  // so close_stream never yanks state out from under an in-flight frame).
  struct StreamEntry {
    std::size_t lane = 0;
    std::shared_ptr<streaming::StreamingSession<Model>> session;
  };

  [[nodiscard]] StreamEntry stream_entry(std::uint64_t id) {
    std::lock_guard<std::mutex> lock(stream_mu_);
    return streams_.at(id);
  }

  ServingConfig cfg_;
  CoreBudget budget_;
  // Lane -> WorkerPool slice (empty when the model has no pool-run entry
  // point or the budget gives each lane a single worker).
  std::vector<std::unique_ptr<WorkerPool>> pools_;
  // The lanes' arena slab, co-owned here so it outlives streams_: each
  // open stream's retained arena is a lease on it.
  std::shared_ptr<ArenaSlab> slab_;
  std::mutex stream_mu_;
  std::map<std::uint64_t, StreamEntry> streams_;
  std::uint64_t next_stream_id_ = 1;
  std::size_t next_stream_lane_ = 0;
  std::atomic<std::uint64_t> opened_streams_{0};
  std::atomic<std::uint64_t> stream_frames_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> swapped_lanes_{0};
  std::atomic<int> pinned_lanes_{0};
  std::mutex latency_mu_;
  std::atomic<bool> record_latency_{false};
  std::vector<double> latencies_ms_;
  // Declared last: destroyed first, so serving threads drain and join
  // while the lane pools above are still alive.
  std::unique_ptr<SessionPool<Model>> pool_;
};

}  // namespace qmcu::nn::serving
