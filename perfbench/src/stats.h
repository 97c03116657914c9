// stats.h — the benchmark's own statistics: percentiles, arrival
// schedules and per-request time accounting.
//
// Everything here is pure (no clocks, no threads) so tests can drive it
// with synthetic timelines. Times are integer nanoseconds on one
// monotonic clock.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "nn/rng.h"

namespace perfbench {

using Ns = std::int64_t;

inline double ns_to_ms(Ns ns) { return static_cast<double>(ns) * 1e-6; }

// A tail percentile is reported only when at least this many samples lie
// beyond it; with fewer, one outlier decides the figure.
inline constexpr std::size_t kMinTailSamples = 10;

// 1-based nearest rank of the p-th percentile of n samples: the smallest
// rank with at least p% of the sample at or below it. The epsilon keeps
// p * n / 100 = 9990.000000000002 (p = 99.9, n = 10000) at rank 9990.
inline std::size_t nearest_rank(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(1.0, rank)),
                                 1, std::max<std::size_t>(n, 1));
}

// Nearest-rank percentile of an ascending sample. p in (0, 100].
inline double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

// Samples strictly beyond the nearest-rank p-th percentile.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

// The highest percentile of the ladder 50, 90, 99, 99.9, ... that still has
// kMinTailSamples samples beyond it (0 when even the median has not).
inline double supported_percentile(std::size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99, 99.999}) {
    if (samples_beyond(n, p) >= kMinTailSamples) best = p;
  }
  return best;
}

// Median, p99 and the sample count of one timing, plus the rule's verdict
// on whether p99 is backed by enough samples.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  double supported = 0.0;  // highest percentile the sample supports
  [[nodiscard]] bool p99_supported() const { return supported >= 99.0; }
};

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = percentile(v, 50.0);
  s.p90 = percentile(v, 90.0);
  s.p99 = percentile(v, 99.0);
  s.max = v.back();
  s.supported = supported_percentile(v.size());
  return s;
}

inline double median(std::vector<double> v) { return summarize(std::move(v)).p50; }

// Open-loop Poisson arrivals: offsets (ns from the phase start) of every
// arrival due before `duration`. Exponential gaps -ln(U)/rate from a
// SplitMix64 stream, so one seed always gives one schedule.
inline std::vector<Ns> poisson_schedule(double rate_per_s, Ns duration,
                                        std::uint64_t seed) {
  std::vector<Ns> due;
  qmcu::nn::Rng rng(seed);
  double t_s = 0.0;
  for (;;) {
    t_s += -std::log(1.0 - rng.uniform()) / rate_per_s;
    const Ns t = static_cast<Ns>(t_s * 1e9);
    if (t >= duration) return due;
    due.push_back(t);
  }
}

// Fixed-rate arrivals for `streams` interleaved streams at `fps` each:
// stream s's frame f is due at (f + s / streams) / fps.
inline Ns frame_due(int frame, int stream, int streams, double fps) {
  const double t_s =
      (static_cast<double>(frame) +
       static_cast<double>(stream) / static_cast<double>(streams)) /
      fps;
  return static_cast<Ns>(t_s * 1e9);
}

// One request's or frame's timeline. `due` is when it should have been
// sent; a phase's generator sets due/send_*; the lane sets start/end,
// stolen and cpu when the model runs; completion is when the client saw
// the result. -1 = did not happen.
struct RequestTimes {
  Ns due = -1;
  Ns send_begin = -1;
  Ns send_end = -1;
  Ns start = -1;
  Ns end = -1;
  Ns complete = -1;
  int tid = -1;  // thread slot of the lane that ran it (traced runs)
  // Wall time of the lane's model call minus the lane thread's CPU time
  // over it: the time the thread was off its CPU while serving the item.
  // A lane runs its model on its own thread without blocking, so this is
  // time the hypervisor stole the virtual CPU (the thread CPU clock of a
  // paravirtualised guest excludes steal) or the guest preempted the lane.
  Ns stolen = 0;
  int cpu = -1;        // the CPU the lane ran it on
  double scale = 1.0;  // takes its times to the reference CPU speed

  [[nodiscard]] bool completed() const { return complete >= 0; }
  [[nodiscard]] bool served() const { return start >= 0 && end >= start; }
  // Latency from the due time, so a stall of the generator or of a lane
  // is charged to every request queued behind it.
  [[nodiscard]] Ns wall_latency() const { return complete - due; }
  // The latency the program is charged with: wall latency minus the time
  // its own lane lost to the host, at the reference CPU speed.
  [[nodiscard]] Ns latency() const {
    return static_cast<Ns>(
        std::llround(static_cast<double>(wall_latency() - stolen) * scale));
  }
  // How late the generator sent (0 when on time).
  [[nodiscard]] Ns late() const { return std::max<Ns>(0, send_begin - due); }
  // Service start minus due: generator lateness plus admission queueing.
  [[nodiscard]] Ns wait() const { return start - due; }
  [[nodiscard]] Ns service() const { return end - start; }
  // Completion minus service end: result hand-off back to the client.
  [[nodiscard]] Ns handoff() const { return complete - end; }
};

// Completions per second within [begin, end): completions after the first
// one, divided by the time from the first to the last. With `lanes` > 0
// that time is shortened by the mean time a lane had stolen
// (RequestTimes::stolen of those completions over `lanes`), so the rate is
// per second of CPU the host actually gave the lanes. 0 with fewer than
// two completions.
inline double burst_rate(const std::vector<RequestTimes>& reqs, Ns begin,
                         Ns end, int lanes = 0) {
  std::int64_t count = 0;
  Ns first = end, last = begin, stolen = 0;
  for (const RequestTimes& r : reqs) {
    if (r.complete < begin || r.complete >= end) continue;
    ++count;
    first = std::min(first, r.complete);
    last = std::max(last, r.complete);
    stolen += r.stolen;
  }
  double span = static_cast<double>(last - first);
  if (lanes > 0) span -= static_cast<double>(stolen) / lanes;
  if (count < 2 || span <= 0.0) return 0.0;
  return static_cast<double>(count - 1) / (span * 1e-9);
}

// The timings a phase reports, over completed requests only (a request
// that was refused or failed has no latency; it counts as an error).
struct PhaseTimings {
  Summary latency_ms;
  Summary wall_latency_ms;
  Summary stolen_ms;
  Summary late_ms;
  Summary wait_ms;
  Summary service_ms;
  Summary handoff_ms;
};

inline PhaseTimings account(const std::vector<RequestTimes>& reqs) {
  std::vector<double> lat, wall, stolen, late, wait, service, handoff;
  for (const RequestTimes& r : reqs) {
    if (r.send_begin >= 0) late.push_back(ns_to_ms(r.late()));
    if (!r.completed()) continue;
    lat.push_back(ns_to_ms(r.latency()));
    wall.push_back(ns_to_ms(r.wall_latency()));
    stolen.push_back(ns_to_ms(r.stolen));
    if (!r.served()) continue;
    wait.push_back(ns_to_ms(r.wait()));
    service.push_back(ns_to_ms(r.service()));
    handoff.push_back(ns_to_ms(r.handoff()));
  }
  PhaseTimings t;
  t.latency_ms = summarize(std::move(lat));
  t.wall_latency_ms = summarize(std::move(wall));
  t.stolen_ms = summarize(std::move(stolen));
  t.late_ms = summarize(std::move(late));
  t.wait_ms = summarize(std::move(wait));
  t.service_ms = summarize(std::move(service));
  t.handoff_ms = summarize(std::move(handoff));
  return t;
}

}  // namespace perfbench
