#include "nn/runtime/worker_pool.h"

#include <algorithm>

#include "nn/check.h"

namespace qmcu::nn {

// --- TaskGraph ---------------------------------------------------------------

int TaskGraph::add(Fn fn) {
  QMCU_REQUIRE(fn != nullptr, "task graph node needs a body");
  nodes_.push_back(Node{std::move(fn), {}, 0});
  return static_cast<int>(nodes_.size()) - 1;
}

void TaskGraph::depend(int task, int prereq) {
  QMCU_REQUIRE(task >= 0 && task < size() && prereq >= 0 && prereq < size(),
               "task graph edge out of range");
  QMCU_REQUIRE(task != prereq, "task cannot depend on itself");
  nodes_[static_cast<std::size_t>(prereq)].successors.push_back(task);
  ++nodes_[static_cast<std::size_t>(task)].preds;
}

void TaskGraph::clear() { nodes_.clear(); }

// --- WorkerPool --------------------------------------------------------------

WorkerPool::WorkerPool(int workers) {
  const int w = std::max(workers, 1);
  lanes_.reserve(static_cast<std::size_t>(w));
  for (int i = 0; i < w; ++i) lanes_.push_back(std::make_unique<Lane>());
  threads_.reserve(static_cast<std::size_t>(w - 1));
  for (int i = 1; i < w; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(job_mu_);
    shutdown_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

bool WorkerPool::take_own(int lane, int& out) {
  Lane& l = *lanes_[static_cast<std::size_t>(lane)];
  std::lock_guard<std::mutex> lock(l.mu);
  if (l.tasks.empty()) return false;
  out = l.tasks.front();
  l.tasks.pop_front();
  return true;
}

bool WorkerPool::steal_any(int thief, int& out) {
  const int w = num_workers();
  for (int d = 1; d < w; ++d) {
    Lane& victim = *lanes_[static_cast<std::size_t>((thief + d) % w)];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (victim.tasks.empty()) continue;
    // Steal from the opposite end the owner pops from: the freshest (and
    // for block-dealt ranges, the most distant) work migrates first.
    out = victim.tasks.back();
    victim.tasks.pop_back();
    return true;
  }
  return false;
}

void WorkerPool::record_exception() {
  std::lock_guard<std::mutex> lock(job_mu_);
  if (!first_error_) first_error_ = std::current_exception();
}

// Makes a now-ready task visible: onto the publishing lane's own deque
// (front — it is the natural continuation of what just finished), then a
// ready-epoch bump so an idle worker that scanned the deques just before
// the push re-checks instead of sleeping through it.
void WorkerPool::publish(int lane, int task) {
  {
    Lane& l = *lanes_[static_cast<std::size_t>(lane)];
    std::lock_guard<std::mutex> lock(l.mu);
    l.tasks.push_front(task);
  }
  {
    std::lock_guard<std::mutex> lock(ready_mu_);
    ++ready_epoch_;
  }
  ready_cv_.notify_all();
}

void WorkerPool::execute(int task, int lane) {
  TaskGraph::Node& node = graph_->nodes_[static_cast<std::size_t>(task)];
  bool failed = false;
  try {
    node.fn(lane);
  } catch (...) {
    record_exception();
    abort_.store(true, std::memory_order_release);
    failed = true;
  }
  // acq_rel on the counters chains the happens-before edge: this task's
  // writes are released by the decrement, and whichever thread takes the
  // counter to zero (or sees remaining_ hit zero) acquires them. A failed
  // task publishes nothing: its successors' counters never reach zero, so
  // no dependent can observe its half-written output — abort_ terminates
  // the drain loops and dispatch_and_wait clears the leftover deques.
  if (!failed) {
    for (const int s : node.successors) {
      if (preds_[static_cast<std::size_t>(s)].fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        publish(lane, s);
      }
    }
  }
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1 ||
      abort_.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> lock(ready_mu_);
      ++ready_epoch_;
    }
    ready_cv_.notify_all();
  }
}

// How many empty deque scans an idle worker tolerates before parking on
// ready_cv_. Pipelined graphs publish successors within microseconds of a
// band finishing, so a short spin (each round yields the timeslice) dodges
// a futex sleep/wake round-trip per publication — but the spin MUST be
// bounded: the pool shares the machine with serving lanes and other
// pools, and an idle worker that spun indefinitely would keep burning a
// core someone else could use. Parking on the condition variable is what
// actually cedes the core.
constexpr int kIdleSpinRounds = 32;

void WorkerPool::drain(int lane) {
  int task = -1;
  int spins = 0;
  for (;;) {
    if (abort_.load(std::memory_order_acquire)) return;
    if (remaining_.load(std::memory_order_acquire) == 0) return;
    if (take_own(lane, task) || steal_any(lane, task)) {
      execute(task, lane);
      spins = 0;
      continue;
    }
    // Nothing runnable: spin briefly (new work usually arrives within the
    // publish latency of a running task), then park until a publish (or
    // completion/abort). The epoch is read before the deque scan above
    // could miss a concurrent publish — the publisher bumps it under
    // ready_mu_ after pushing, so either the scan saw the task or the
    // epoch moved.
    if (spins < kIdleSpinRounds) {
      ++spins;
      std::this_thread::yield();
      continue;
    }
    spins = 0;
    std::unique_lock<std::mutex> lock(ready_mu_);
    const std::uint64_t seen = ready_epoch_;
    ready_cv_.wait(lock, [&] {
      return ready_epoch_ != seen ||
             remaining_.load(std::memory_order_acquire) == 0 ||
             abort_.load(std::memory_order_acquire);
    });
  }
}

void WorkerPool::worker_main(int lane) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(job_mu_);
      job_cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
    }
    drain(lane);
    {
      std::lock_guard<std::mutex> lock(job_mu_);
      if (--active_workers_ == 0) done_cv_.notify_one();
    }
  }
}

void WorkerPool::dispatch_and_wait() {
  {
    std::lock_guard<std::mutex> lock(job_mu_);
    first_error_ = nullptr;
    active_workers_ = num_workers() - 1;
    ++generation_;
  }
  job_cv_.notify_all();

  drain(0);  // the caller is worker 0

  std::unique_lock<std::mutex> lock(job_mu_);
  done_cv_.wait(lock, [&] { return active_workers_ == 0; });
  graph_ = nullptr;
  // An aborted graph leaves never-ready and never-popped tasks behind;
  // clear the deques so the next run starts clean.
  for (auto& lane : lanes_) {
    std::lock_guard<std::mutex> l(lane->mu);
    lane->tasks.clear();
  }
  if (first_error_) {
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(e);
  }
}

void WorkerPool::run_graph(TaskGraph& graph) {
  if (graph.empty()) return;
  const int w = num_workers();
  const std::size_t n = graph.nodes_.size();

  // A cycle would stall the workers forever (no counter ever reaches
  // zero), so reject it up front — on every worker count, before any task
  // runs — with a dry Kahn pass over the static counts. Graphs here are
  // dozens of nodes; the check is free.
  {
    std::vector<int> preds(n);
    std::vector<int> stack;
    for (std::size_t i = 0; i < n; ++i) {
      preds[i] = graph.nodes_[i].preds;
      if (preds[i] == 0) stack.push_back(static_cast<int>(i));
    }
    std::size_t reached = 0;
    while (!stack.empty()) {
      const int t = stack.back();
      stack.pop_back();
      ++reached;
      for (const int s : graph.nodes_[static_cast<std::size_t>(t)].successors) {
        if (--preds[static_cast<std::size_t>(s)] == 0) stack.push_back(s);
      }
    }
    QMCU_REQUIRE(reached == n, "task graph has a dependency cycle");
  }

  if (w == 1) {
    // Inline sequential path: run tasks in dependency order (Kahn over the
    // static counters), no scheduler involved.
    std::vector<int> preds(n);
    for (std::size_t i = 0; i < n; ++i) preds[i] = graph.nodes_[i].preds;
    std::vector<int> stack;
    for (std::size_t i = n; i-- > 0;) {
      if (preds[i] == 0) stack.push_back(static_cast<int>(i));
    }
    while (!stack.empty()) {
      const int t = stack.back();
      stack.pop_back();
      graph.nodes_[static_cast<std::size_t>(t)].fn(0);
      for (const int s : graph.nodes_[static_cast<std::size_t>(t)].successors) {
        if (--preds[static_cast<std::size_t>(s)] == 0) stack.push_back(s);
      }
    }
    return;
  }

  if (preds_capacity_ < n) {
    preds_ = std::make_unique<std::atomic<int>[]>(n);
    preds_capacity_ = n;
  }
  for (std::size_t i = 0; i < n; ++i) {
    preds_[i].store(graph.nodes_[i].preds, std::memory_order_relaxed);
  }
  std::size_t ready = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (graph.nodes_[i].preds == 0) ++ready;
  }
  graph_ = &graph;
  remaining_.store(static_cast<std::int64_t>(n), std::memory_order_relaxed);
  abort_.store(false, std::memory_order_relaxed);

  // Deal the initially-ready tasks lane by lane (block distribution): each
  // worker starts on a compact stretch of the ready set and stealing moves
  // whole tasks from the far end of a loaded lane.
  const std::size_t per_lane = ready / static_cast<std::size_t>(w);
  std::size_t extra = ready % static_cast<std::size_t>(w);
  std::size_t next = 0;
  for (int lane = 0; lane < w; ++lane) {
    std::size_t take =
        per_lane + (static_cast<std::size_t>(lane) < extra ? 1 : 0);
    Lane& l = *lanes_[static_cast<std::size_t>(lane)];
    std::lock_guard<std::mutex> lock(l.mu);
    QMCU_ENSURE(l.tasks.empty(), "a graph run is already in flight");
    while (take > 0 && next < n) {
      if (graph.nodes_[next].preds == 0) {
        l.tasks.push_back(static_cast<int>(next));
        --take;
      }
      ++next;
    }
  }

  dispatch_and_wait();
}

}  // namespace qmcu::nn
