// worker_pool.h — fixed thread pool with a dependency-driven task-graph
// scheduler over chunked work-stealing deques.
//
// The patch stage of the paper's runtime is embarrassingly parallel: every
// branch (patch) computes a spatially independent slice of the cut layer's
// feature map. The tail after the cut is *not* — each tail layer reads a
// few rows of the assembled map — but it is still far from sequential: its
// row bands only depend on the branches (and earlier bands) that produce
// their input rows. WorkerPool therefore schedules a TaskGraph: tasks carry
// atomic dependency counters; a task whose counter hits zero is pushed onto
// the finishing worker's deque, and idle workers steal from the back of a
// victim's deque — so an unlucky worker stuck on an expensive border patch
// does not serialise the grid, and tail bands start on spare workers while
// interior branches are still running.
//
// The patch model (patch/compiled_patch_model.h) is the pool's one
// client: run(input, pool) and run_streaming(..., pool, ...) build their
// graphs over it. Serving lanes do not own pools; each lane is one thread
// (serving/serving_frontend.h).
//
// Contracts the patch runtime depends on:
//   * The calling thread participates as worker 0, so a pool with
//     num_workers() == 1 runs the graph inline, in dependency order, with
//     no locks, no thread hand-off and no memory-ordering surprises —
//     exactly the sequential code path.
//   * Each task invocation receives the worker lane index [0, W) it runs
//     on; lanes map 1:1 to threads for the duration of one run, which is
//     what makes per-worker arenas and per-worker KernelBackend scratch
//     sound.
//   * run_graph is a barrier: it returns only after every reachable task
//     has executed (or the graph aborted on an exception).
//     The first exception thrown by a task wins and is rethrown on the
//     calling thread after the barrier; tasks whose dependencies never
//     resolved because of the abort are skipped.
//   * Dependency edges are also memory-publication edges: everything a
//     task wrote is visible to every task that (transitively) depended on
//     it, without further synchronisation. That is what lets a branch task
//     merge rows of the assembled map lock-free and a tail band read them.
//
// A WorkerPool is itself thread-affine: only one graph may be in flight at
// a time (the patch models and benches own their pools), and it must be
// driven from one thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace qmcu::nn {

// A contiguous index range [begin, end) — one cost-weighted chunk of
// branches (patch::weighted_chunks), run as one task.
struct IndexRange {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

// A DAG of tasks built once per run and executed by WorkerPool::run_graph.
// Build is single-threaded (not locked); execution mutates only the
// scheduler-owned dependency counters, so a graph must not be rebuilt
// while it runs. Task ids are dense, in add() order.
class TaskGraph {
 public:
  // A task body; receives the worker lane index it runs on.
  using Fn = std::function<void(int)>;

  // Adds a task with no dependencies yet; returns its id.
  int add(Fn fn);

  // `task` must not start until `prereq` has finished. Duplicate edges are
  // allowed (each counts once more, harmlessly — the counter just reaches
  // zero after all copies fire). Self-edges and forward edges to
  // not-yet-added tasks are rejected.
  void depend(int task, int prereq);

  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] bool empty() const { return nodes_.empty(); }
  void clear();

 private:
  friend class WorkerPool;
  struct Node {
    Fn fn;
    std::vector<int> successors;
    int preds = 0;  // static dependency count (copied to a counter per run)
  };
  std::vector<Node> nodes_;
};

class WorkerPool {
 public:
  // `workers` total lanes including the caller; clamped to >= 1. The pool
  // spawns workers-1 parked threads.
  explicit WorkerPool(int workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] int num_workers() const {
    return static_cast<int>(lanes_.size());
  }

  // Executes `graph` to completion: ready tasks are dealt across the lane
  // deques, finished tasks decrement their successors' counters, and a
  // successor reaching zero is published onto the finisher's deque (idle
  // workers steal it). Blocks until every task ran or the graph aborted on
  // a task exception (first exception rethrown here).
  void run_graph(TaskGraph& graph);

 private:
  // One worker's task deque. The owner pops from the front, thieves steal
  // from the back; tasks are coarse (whole dataflow branches, tail row
  // bands), so a plain mutex per lane costs nothing measurable next to the
  // kernels.
  struct Lane {
    std::mutex mu;
    std::deque<int> tasks;
  };

  void worker_main(int lane);
  void drain(int lane);
  void execute(int task, int lane);
  void publish(int lane, int task);
  [[nodiscard]] bool take_own(int lane, int& out);
  [[nodiscard]] bool steal_any(int thief, int& out);
  void record_exception();
  void dispatch_and_wait();  // wake workers, drain as lane 0, barrier

  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> threads_;

  // Dispatch state: generation bumps wake the parked workers for one graph.
  std::mutex job_mu_;
  std::condition_variable job_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  int active_workers_ = 0;
  bool shutdown_ = false;
  std::exception_ptr first_error_;

  // Per-run graph state. `preds_` holds the live dependency counters
  // (index = task id); `remaining_` counts unfinished tasks; `abort_`
  // flips on the first task exception. Idle workers wait on ready_cv_;
  // ready_epoch_ is bumped under ready_mu_ on every publish so a publish
  // racing an idle worker's deque scan is never lost.
  TaskGraph* graph_ = nullptr;
  std::unique_ptr<std::atomic<int>[]> preds_;
  std::size_t preds_capacity_ = 0;
  std::atomic<std::int64_t> remaining_{0};
  std::atomic<bool> abort_{false};
  std::mutex ready_mu_;
  std::condition_variable ready_cv_;
  std::uint64_t ready_epoch_ = 0;
};

}  // namespace qmcu::nn
