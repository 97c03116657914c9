// anchor.h — a fixed CPU workload that measures how fast a CPU is right
// now, and the scale that takes a time measured at that speed to a fixed
// reference speed.
//
// The virtual CPUs of a shared host change speed by up to 1.8x from one
// millisecond to the next (another tenant on the sibling hyperthread), and
// the share of slow time drifts over minutes, independently of the
// program. Timing this workload on the same CPU next to a measurement
// gives the speed the measurement ran at. The workload is the benchmark's
// own code, compiled on its own with fixed flags and without the library,
// so no change to the library or its flags makes it faster or slower.
#pragma once

#include <cmath>
#include <cstdint>

namespace perfbench {

// Thread CPU nanoseconds one fixed unit of anchor work took: 24 passes of
// a byte multiply-accumulate over a 64 KiB buffer, about 1 ms.
std::int64_t anchor_unit_ns();

// Mean of `units` anchor units run back to back on the calling thread.
double anchor_mean_ns(int units);

// The anchor unit's cost that defines the reference speed: about the
// uncontended mode of the 4-core AVX2+VNNI virtual machine the benchmark
// was defined on (0.8-1.0 ms there; 1.5-2.4 ms in its contended mode).
inline constexpr double kAnchorReferenceNs = 1.0e6;

// How strongly the program's time follows the anchor's; the program slows
// less than the anchor when the host contends. On that machine, within one
// run, log(model run time) against log(anchor cost on the same CPU) had
// slope 0.73 (correlation 0.93) over 1281 interleaved samples on an idle
// core and 0.70 (correlation 0.91) over 1495 requests served by a lane.
// Across runs the response flattens: runs in a light host state (anchor
// about 0.9 ms) and in a heavy one (about 2.6 ms) give the same latency,
// capacity and plan time at 0.55, which is the value used. A time t
// measured next to an anchor cost a reads as t * (reference / a)^0.55.
inline constexpr double kAnchorElasticity = 0.55;

// The factor that takes a time measured next to an anchor cost of
// `anchor_ns` to the reference speed (1 when there is no sample).
inline double speed_scale(double anchor_ns) {
  return anchor_ns > 0.0
             ? std::pow(kAnchorReferenceNs / anchor_ns, kAnchorElasticity)
             : 1.0;
}

}  // namespace perfbench
