#include "nn/runtime/cpu_affinity.h"

#include <algorithm>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace qmcu::nn::runtime {

namespace {

std::vector<int> first_hardware_cpus() {
  const int n =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<int> cpus(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) cpus[static_cast<std::size_t>(i)] = i;
  return cpus;
}

}  // namespace

int usable_cpus() { return static_cast<int>(allowed_cpus().size()); }

#if defined(__linux__)

bool affinity_supported() { return true; }

std::vector<int> allowed_cpus() {
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) {
    return first_hardware_cpus();
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) cpus.push_back(c);
  }
  return cpus.empty() ? first_hardware_cpus() : cpus;
}

bool pin_current_thread(std::span<const int> cpus) {
  if (cpus.empty()) return false;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (const int c : cpus) {
    if (c < 0 || c >= CPU_SETSIZE) return false;
    CPU_SET(c, &mask);
  }
  return pthread_setaffinity_np(pthread_self(), sizeof(mask), &mask) == 0;
}

#else  // !__linux__ — pinning is a no-op hint; callers run unpinned.

bool affinity_supported() { return false; }

std::vector<int> allowed_cpus() { return first_hardware_cpus(); }

bool pin_current_thread(std::span<const int>) { return false; }

#endif

}  // namespace qmcu::nn::runtime
