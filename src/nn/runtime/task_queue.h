// task_queue.h — blocking MPMC queue of serving-lane tasks.
//
// The non-template half of ServingFrontend: producers (any thread calling
// submit) push closures, consumers (the front-end's serving threads) block
// in pop until a task or shutdown arrives. Each task receives the index of
// the serving lane that runs it — that is how a queued request gets bound
// to whichever pre-compiled lane model frees up first without ever sharing
// a model between threads. shutdown() lets consumers drain what is already
// queued, then releases them.
//
// Two task classes share the queue in FIFO order:
//
//   * requests (push / try_push) — eligible to every lane; whichever
//     serving thread frees up first takes the oldest one. try_push bounds
//     THIS class only: control tasks never consume admission budget.
//   * control tasks (push_to) — addressed to ONE lane; other lanes skip
//     over them. The model hot-swap rebinds a lane's model through this:
//     the rebind runs on the lane's own serving thread, between requests,
//     after every request queued ahead of it has been taken — exclusive
//     model execution is preserved by construction.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>

namespace qmcu::nn::runtime {

class TaskQueue {
 public:
  // Argument: the serving-lane index executing the task.
  using Task = std::function<void(std::size_t)>;

  // Enqueues a task any lane may run. After shutdown the task is dropped:
  // any promise it owned is destroyed unfulfilled, so the submitter's
  // future.get() throws std::future_error(broken_promise) — a
  // submit/teardown race is loud, not a hang.
  void push(Task task);

  // Bounded-admission push: enqueues only if fewer than `max_depth`
  // requests are already queued (checked under the queue lock, so
  // concurrent submitters cannot overshoot the bound; lane-addressed
  // control tasks do not count). Returns false — dropping the task — when
  // the queue is full or shut down; the serving front-end turns that into
  // an explicit load-shed rejection instead of letting a backlog grow
  // without bound.
  bool try_push(Task task, std::size_t max_depth);

  // Enqueues a control task only lane `lane` may run. FIFO with respect to
  // requests: the lane takes it after every request pushed before it has
  // been claimed (by any lane), and before any request pushed after it.
  void push_to(std::size_t lane, Task task);

  // Blocks until a task eligible to `lane` is available or the queue is
  // shut down *and* holds no task this lane may run. Returns false only in
  // the latter case.
  bool pop(std::size_t lane, Task& out);

  void shutdown();

  // Queued *requests* (control tasks excluded — this is the admission
  // backlog the serving front-end sheds on).
  [[nodiscard]] std::size_t depth() const;

 private:
  struct Entry {
    Task fn;
    bool targeted = false;
    std::size_t lane = 0;
  };

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Entry> tasks_;
  std::size_t requests_ = 0;  // untargeted entries currently queued
  bool closed_ = false;
};

}  // namespace qmcu::nn::runtime
