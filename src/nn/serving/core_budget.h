// core_budget.h — one shared core budget for both parallelism layers.
//
// The runtime has two independent parallel axes: intra-request
// (WorkerPool pipelined task graphs, PR 3/4) and inter-request
// (ServingFrontend lanes). Stacked naively they multiply: S sessions each
// driving a hardware_workers()-wide pool puts S x C threads on C cores —
// context-switch churn, arenas bouncing between private caches, and worse
// throughput than either layer alone. CoreBudget is the arbitration rule:
//
//     sessions x workers_per_session  <=  core budget,
//
// partitioning the budget into per-lane slices. Lane i's serving thread
// is worker 0 of its own WorkerPool slice, the slice's threads are pinned
// to lane i's CPUs (best-effort, see runtime/cpu_affinity.h), and the
// remainder cores left by an uneven division widen the first lanes'
// pin sets without adding workers — the thread count never exceeds the
// budget.
//
// ServingConfig bundles the budget with the admission-control knobs the
// ServingFrontend enforces (bounded queue, deadlines, shed policy).
#pragma once

#include <chrono>
#include <cstddef>
#include <vector>

namespace qmcu::nn::serving {

// The partition of a core budget across serving lanes.
struct CoreBudget {
  int total_cores = 1;          // the budget being divided
  int sessions = 1;             // serving lanes
  int workers_per_session = 1;  // WorkerPool width per lane (incl. worker 0)

  // Splits `total_cores` (0 = detect via runtime::usable_cpus()) across
  // `sessions` lanes: workers_per_session = max(1, total/sessions). More
  // lanes than cores means 1-worker lanes time-sharing cores — admission
  // control's job, not the partitioner's.
  static CoreBudget partition(int sessions, int total_cores = 0);

  // Total threads the serving stack runs (= sessions x workers_per_session,
  // <= max(total_cores, sessions)).
  [[nodiscard]] int threads() const { return sessions * workers_per_session; }

  // The CPU ids lane `lane` pins to: its contiguous slice of
  // [0, total_cores), plus one remainder core for the first
  // total % sessions lanes (scheduling slack — the lane still runs only
  // workers_per_session threads). With more lanes than cores, lanes wrap
  // round-robin onto single cores.
  [[nodiscard]] std::vector<int> lane_cpus(int lane) const;
};

struct ServingConfig {
  // Lanes (pre-compiled sessions + serving threads).
  int sessions = 2;
  // Cores the front-end may use; 0 = all usable CPUs of this process.
  int core_budget = 0;
  // Pin each lane's threads to its CoreBudget slice (best-effort; ignored
  // where unsupported).
  bool pin_lanes = true;
  // Bounded admission: submissions beyond this queue depth are rejected.
  // 0 = unbounded (no rejection).
  std::size_t max_queue_depth = 64;
  // Deadline granted to submit() calls that don't pass their own; measured
  // from submission. zero() = no deadline.
  std::chrono::microseconds default_deadline{0};
};

}  // namespace qmcu::nn::serving
