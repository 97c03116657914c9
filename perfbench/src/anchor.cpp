#include "anchor.h"

#include <time.h>

#include <array>
#include <cstddef>

namespace perfbench {

namespace {

constexpr std::size_t kBytes = 64 * 1024;
constexpr int kPasses = 24;

struct Buffers {
  std::array<std::uint8_t, kBytes> act{};
  std::array<std::int8_t, 256> weight{};
  Buffers() {
    std::uint32_t x = 0x9e3779b9u;
    for (std::uint8_t& a : act) {
      x = x * 1664525u + 1013904223u;
      a = static_cast<std::uint8_t>(x >> 24);
    }
    for (std::int8_t& w : weight) {
      x = x * 1664525u + 1013904223u;
      w = static_cast<std::int8_t>(x >> 24);
    }
  }
};

std::int64_t thread_cpu() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

volatile std::int64_t g_sink = 0;

}  // namespace

std::int64_t anchor_unit_ns() {
  thread_local Buffers b;
  const std::int64_t t0 = thread_cpu();
  std::int32_t acc = 0;
  float facc = 0.0f;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (std::size_t i = 0; i < kBytes; ++i) {
      acc += static_cast<std::int32_t>(b.act[i]) * b.weight[(i + pass) & 255];
    }
    for (std::size_t i = 0; i < kBytes; i += 64) {
      facc = facc * 0.999f + static_cast<float>(b.act[i]);
    }
  }
  g_sink = g_sink + acc + static_cast<std::int64_t>(facc);
  return thread_cpu() - t0;
}

double anchor_mean_ns(int units) {
  double sum = 0.0;
  for (int i = 0; i < units; ++i) sum += static_cast<double>(anchor_unit_ns());
  return units > 0 ? sum / units : 0.0;
}

}  // namespace perfbench
