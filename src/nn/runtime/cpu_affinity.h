// cpu_affinity.h — best-effort thread-to-core pinning for serving lanes.
//
// The serving front-end pins each lane's one serving thread to one CPU of
// the process's allowed set, so a lane's arena, scratch and weight-panel
// caches stay resident in that core's private caches instead of bouncing
// whenever the scheduler migrates the thread across the machine.
//
// Everything here is best-effort by contract: pinning is a performance
// hint, never a correctness requirement. On platforms without
// sched_setaffinity (or when the process's cpuset forbids a requested
// core) pin_current_thread returns false and callers run unpinned —
// results are bit-identical either way.
#pragma once

#include <span>
#include <vector>

namespace qmcu::nn::runtime {

// True when this build can pin threads to CPUs at all (Linux). When false,
// pin_current_thread returns false without side effects.
[[nodiscard]] bool affinity_supported();

// The CPU ids the calling thread may run on, ascending: the
// sched_getaffinity mask where available (a container cpuset or a
// `taskset` can be far smaller than the machine, and need not start at
// CPU 0), else [0, hardware_concurrency). Never empty.
[[nodiscard]] std::vector<int> allowed_cpus();

// allowed_cpus().size(). Always >= 1.
[[nodiscard]] int usable_cpus();

// Pins the calling thread to the given CPU ids. Returns true iff the mask
// was applied; false on unsupported platforms, an empty or out-of-range
// cpu list, or a rejected mask (e.g. cpuset excludes every requested
// core).
bool pin_current_thread(std::span<const int> cpus);

}  // namespace qmcu::nn::runtime
