// serving_frontend.h — the serving front-end.
//
// Every compiled model in this repo is compile-once / run-many but
// single-flight: one arena, one scratch arena, one weight-panel cache, all
// rebound per run. Serving concurrent traffic therefore needs N pre-built
// models, not per-request compilation. ServingFrontend owns N lanes, each
// exactly one model plus one serving thread, and one blocking request
// queue (runtime::TaskQueue): whichever serving thread frees up first pops
// the oldest request and runs it on *its own* lane model with the
// sequential run(input), so a model is only ever driven by one thread (the
// backend's thread-affinity guard holds by construction). Parallelism
// comes from lanes alone, as in the paper's runtime, where one patch-based
// inference runs on one core.
//
// Construction runs the factory once per lane on the calling thread
// (compilation and weight prepack happen before any traffic); destruction
// drains already-queued requests, then joins the serving threads. Lane
// models may lease their run arenas from one ArenaSlab (pass one in to
// share it across front-ends, or let the front-end create its own), so
// fleet arena memory is capped by busy lanes, not by the number of models.
//
// Lanes are pinned to one CPU each (best-effort, see lane_cpu below):
// lane i runs on the (i mod n)-th CPU of the set the process may use, so
// a lane's arena, scratch and weight-panel caches stay resident in one
// core's private caches instead of migrating, and a `taskset` or cpuset
// mask is honoured. Results are bit-identical to sequential single-model
// runs in every configuration — pinning and batch spreading only change
// *where and when* a request runs, never its arithmetic.
//
// Admission control is explicit and all-or-nothing per request:
//   * bounded queue — submissions beyond max_queue_depth fail immediately
//     with RejectedError (the future carries it; nothing was queued);
//   * per-request deadlines — a request still queued when its deadline
//     passes is never started: its future carries DeadlineExceededError,
//     by construction there is no partial result.
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
// Streams (models with run_streaming, i.e. the patch model): open_stream
// pins a StreamingSession to a lane round-robin; submit_stream routes each
// frame to that lane IN FIFO ORDER (a lane-addressed task, task_queue.h),
// so the stream's retained arena and diff baseline stay coherent — and
// frames see the previous frame's work. Stream frames deliberately bypass
// admission control (bounded queue, deadlines): dropping or reordering a
// frame would force a full recompute and cost more than running it.
// Back-pressure for streams belongs at the source (skip capture frames,
// not queued ones).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "nn/check.h"
#include "nn/runtime/arena_slab.h"
#include "nn/runtime/cpu_affinity.h"
#include "nn/runtime/task_queue.h"
#include "nn/tensor.h"
#include "nn/streaming/streaming_session.h"

namespace qmcu::nn::serving {

struct ServingConfig {
  // Lanes (pre-compiled models, one serving thread each).
  int sessions = 2;
  // CPUs the lanes pin to: the first core_budget CPUs of the process's
  // allowed set (0 = all of them). Lanes beyond that wrap round-robin.
  int core_budget = 0;
  // Pin each lane's serving thread to its CPU (best-effort; ignored
  // where unsupported).
  bool pin_lanes = true;
  // Bounded admission: submissions beyond this queue depth are rejected.
  // 0 = unbounded (no rejection).
  std::size_t max_queue_depth = 64;
  // Deadline granted to submit() calls that don't pass their own; measured
  // from submission. zero() = no deadline.
  std::chrono::microseconds default_deadline{0};
};

// The CPU lane `lane` pins to: the (lane mod n)-th id of `allowed`, where
// n = min(core_budget, allowed.size()) and core_budget 0 means all of
// `allowed`. More lanes than n time-share cores round-robin — the
// admission queue, not the scheduler, keeps that from melting down.
[[nodiscard]] inline int lane_cpu(int lane, int core_budget,
                                  std::span<const int> allowed) {
  QMCU_REQUIRE(lane >= 0 && !allowed.empty(), "lane_cpu: no CPU to map to");
  const int count = static_cast<int>(allowed.size());
  const int n = core_budget > 0 ? std::min(core_budget, count) : count;
  return allowed[static_cast<std::size_t>(lane % n)];
}

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
  std::uint64_t completed = 0;  // ran to completion
  std::uint64_t rejected = 0;   // shed at admission (queue full)
  std::uint64_t expired = 0;    // shed at pop (deadline passed)
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
  using Output =
      decltype(std::declval<const Model&>().run(std::declval<const Tensor&>()));
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;
  // Builds lane `lane`'s model; `slab` is the lanes' shared arena slab
  // (wire it via model->set_arena_source(slab) to cap fleet arena memory).
  using Factory = std::function<std::unique_ptr<Model>(
      int lane, const std::shared_ptr<ArenaSlab>&)>;

  // True when Model supports temporal patch reuse (the patch model's
  // run_streaming); gates the stream API below.
  static constexpr bool kStreamable =
      requires(const Model& m, const Tensor& t, patch::StreamState& s) {
        m.run_streaming(t, nullptr, s);
      };

  // No deadline for this request.
  static constexpr TimePoint kNoDeadline = TimePoint{};

  explicit ServingFrontend(const ServingConfig& cfg, const Factory& factory,
                           std::shared_ptr<ArenaSlab> slab = nullptr)
      : cfg_(cfg),
        slab_(slab ? std::move(slab) : std::make_shared<ArenaSlab>()) {
    QMCU_REQUIRE(cfg.sessions >= 1,
                 "serving front-end needs at least one session");
    // Lane models and CPUs in lane order, on this thread, before any
    // serving thread exists. The CPU set is the constructing thread's.
    const std::vector<int> allowed = runtime::allowed_cpus();
    lanes_.resize(static_cast<std::size_t>(cfg.sessions));
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
      lanes_[lane].cpu =
          serving::lane_cpu(static_cast<int>(lane), cfg.core_budget, allowed);
      lanes_[lane].model = factory(static_cast<int>(lane), slab_);
      QMCU_REQUIRE(lanes_[lane].model != nullptr,
                   "serving factory returned no model");
    }
    threads_.reserve(lanes_.size());
    try {
      for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
        threads_.emplace_back([this, lane] { serve(lane); });
      }
    } catch (...) {
      stop_serving();  // no destructor runs for a throwing constructor
      throw;
    }
  }

  ~ServingFrontend() { stop_serving(); }

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
  // concurrently instead of one lane serializing the whole batch. Futures
  // are in input order; an item that throws fails only its own future.
  // Admission (and the deadline) is per chunk, so an oversubscribed queue
  // sheds trailing chunks whole.
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

  // Hot-swaps the fleet's model under live traffic. Every lane's
  // replacement is built first, on THIS thread (compilation, prepack or
  // artifact-bundle adoption never stall a serving thread), so a factory
  // that throws leaves every lane on the old model. For that moment N
  // replacements are live next to the old models; artifact-backed
  // replacements are views into one mapping, so this costs little. Then,
  // one lane at a time, lane i's own serving thread installs its
  // replacement between two requests — a lane-addressed task (FIFO: it
  // runs after every request admitted before it has been claimed), so the
  // lane drains, rebinds and resumes — before lane i+1 starts. Requests
  // admitted before the call complete on whichever model generation their
  // lane runs when they are claimed; requests admitted after it run on the
  // new model once their lane has swapped. Nothing is dropped either way.
  // With `factory` closing over a mapped plan artifact (nn::load_compiled /
  // PlanArtifact::make_quant_model) this is the fleet's zero-downtime
  // deploy: N lanes rebind to one new shared mapping while the old mapping
  // drains away with its last lane.
  void swap_model(const Factory& factory) {
    auto fresh = std::make_shared<std::vector<std::unique_ptr<Model>>>();
    fresh->reserve(lanes_.size());
    for (int lane = 0; lane < num_sessions(); ++lane) {
      fresh->push_back(factory(lane, slab_));
      QMCU_REQUIRE(fresh->back() != nullptr, "swap factory returned no model");
    }
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
      auto rebound = std::make_shared<std::promise<void>>();
      std::future<void> done = rebound->get_future();
      // The old model is destroyed here, on its own lane, after its last
      // request finished.
      queue_.push_to(lane, [this, fresh, rebound](std::size_t si) {
        lanes_[si].model = std::move((*fresh)[si]);
        rebound->set_value();
      });
      done.get();
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
    queue_.push_to(
        entry.lane, [this, session = entry.session, promise,
                     frame = std::move(frame)](std::size_t lane) {
          try {
            Output out = session->next(*lanes_[lane].model, frame);
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
    queue_.push_to(entry.lane,
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
    s.swapped_lanes = swapped_lanes_.load(std::memory_order_relaxed);
    s.streams = opened_streams_.load(std::memory_order_relaxed);
    s.stream_frames = stream_frames_.load(std::memory_order_relaxed);
    s.pending = queue_.depth();
    s.idle_sessions =
        std::max(0, num_sessions() - busy_.load(std::memory_order_relaxed));
    s.pinned_lanes = pinned_lanes_.load(std::memory_order_relaxed);
    return s;
  }

  [[nodiscard]] const ServingConfig& config() const { return cfg_; }
  [[nodiscard]] int num_sessions() const {
    return static_cast<int>(lanes_.size());
  }
  // The CPU lane `lane`'s serving thread pins to when pin_lanes is set
  // (stats().pinned_lanes counts the pins that took).
  [[nodiscard]] int lane_cpu(int lane) const {
    return lanes_.at(static_cast<std::size_t>(lane)).cpu;
  }
  [[nodiscard]] const std::shared_ptr<ArenaSlab>& slab() const {
    return slab_;
  }
  // Per-lane request counts (read when no traffic is in flight).
  [[nodiscard]] std::vector<std::uint64_t> per_session_requests() const {
    std::vector<std::uint64_t> counts;
    counts.reserve(lanes_.size());
    for (const Lane& l : lanes_) counts.push_back(l.requests);
    return counts;
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

  // Drains queued requests, then joins the serving threads — before any
  // member (streams, models, slab) is destroyed.
  void stop_serving() {
    queue_.shutdown();
    for (std::thread& t : threads_) t.join();
  }

  // Runs on lane `lane`'s serving thread: pin to the lane's CPU, then
  // serve until shutdown drains the queue.
  void serve(std::size_t lane) {
    const int cpu = lanes_[lane].cpu;
    if (cfg_.pin_lanes &&
        runtime::pin_current_thread(std::span<const int>(&cpu, 1))) {
      pinned_lanes_.fetch_add(1, std::memory_order_relaxed);
    }
    runtime::TaskQueue::Task task;
    while (queue_.pop(lane, task)) {
      busy_.fetch_add(1, std::memory_order_relaxed);
      task(lane);
      busy_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] bool enqueue(runtime::TaskQueue::Task task) {
    if (cfg_.max_queue_depth == 0) {
      queue_.push(std::move(task));
      return true;
    }
    return queue_.try_push(std::move(task), cfg_.max_queue_depth);
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
    Lane& l = lanes_[lane];
    ++l.requests;
    return l.model->run(input);
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

  // One serving lane: its model (touched only by the lane's serving
  // thread once serving starts), its request count and its CPU. Cache-line
  // aligned so lanes never write to a line another lane reads.
  struct alignas(64) Lane {
    std::unique_ptr<Model> model;
    std::uint64_t requests = 0;
    int cpu = 0;
  };

  ServingConfig cfg_;
  // The lanes' arena slab, declared before streams_ and lanes_ so it
  // outlives them: open streams' retained arenas are leases on it.
  std::shared_ptr<ArenaSlab> slab_;
  std::vector<Lane> lanes_;
  std::mutex stream_mu_;
  std::map<std::uint64_t, StreamEntry> streams_;
  std::uint64_t next_stream_id_ = 1;
  std::size_t next_stream_lane_ = 0;
  std::atomic<std::uint64_t> opened_streams_{0};
  std::atomic<std::uint64_t> stream_frames_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> swapped_lanes_{0};
  std::atomic<int> pinned_lanes_{0};
  std::mutex latency_mu_;
  std::atomic<bool> record_latency_{false};
  std::vector<double> latencies_ms_;
  std::atomic<int> busy_{0};  // lanes running a task right now
  runtime::TaskQueue queue_;
  std::vector<std::thread> threads_;
};

}  // namespace qmcu::nn::serving
