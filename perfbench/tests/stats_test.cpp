// Tests for the benchmark's own statistics: the percentile rule, due-time
// latency accounting, seeded arrival schedules and camera streams, and
// span self time.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "anchor.h"
#include "camera.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr Ns kMs = 1'000'000;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileRule, P99NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(999, 99.0), 9u);
  EXPECT_EQ(supported_percentile(1000), 99.0);
  EXPECT_EQ(supported_percentile(999), 90.0);
  EXPECT_EQ(supported_percentile(10000), 99.9);
  EXPECT_EQ(supported_percentile(19), 0.0);
  EXPECT_EQ(supported_percentile(20), 50.0);
}

TEST(PercentileRule, SummaryReportsNearestRankAndCount) {
  const Summary s = summarize(ramp(1000));
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.p99, 990.0);
  EXPECT_TRUE(s.p99_supported());
  const Summary small = summarize(ramp(200));
  EXPECT_EQ(small.n, 200u);
  EXPECT_FALSE(small.p99_supported());
  EXPECT_EQ(summarize({}).n, 0u);
}

// A single FIFO lane serving requests due every 10 ms in 2 ms each, except
// request 1 which stalls for 27 ms: due-time latency charges the stall to
// the requests queued behind it, service time does not.
TEST(DueTimeLatency, StallIsChargedToRequestsBehindIt) {
  std::vector<RequestTimes> reqs(5);
  Ns lane_free = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    RequestTimes& r = reqs[i];
    r.due = static_cast<Ns>(i) * 10 * kMs;
    r.send_begin = r.due;
    r.send_end = r.due;
    r.start = std::max(r.send_end, lane_free);
    r.end = r.start + (i == 1 ? 27 : 2) * kMs;
    r.complete = r.end;
    lane_free = r.end;
  }
  EXPECT_EQ(reqs[2].latency(), 19 * kMs);
  EXPECT_EQ(reqs[3].latency(), 11 * kMs);
  EXPECT_EQ(reqs[4].latency(), 3 * kMs);
  EXPECT_EQ(reqs[2].service(), 2 * kMs);
  EXPECT_EQ(reqs[2].wait(), 17 * kMs);

  const PhaseTimings t = account(reqs);
  EXPECT_EQ(t.latency_ms.n, 5u);
  EXPECT_DOUBLE_EQ(t.latency_ms.p50, 11.0);
  EXPECT_DOUBLE_EQ(t.latency_ms.max, 27.0);
  EXPECT_DOUBLE_EQ(t.service_ms.p50, 2.0);
}

// A generator that falls behind: sends after the due time are charged to
// the requests (latency from due) and reported as lateness.
TEST(GeneratorLateness, LateSendsAreCountedFromDue) {
  std::vector<RequestTimes> reqs(4);
  const Ns send[] = {0, 30, 31, 32};  // stalled 25 ms before request 1
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    RequestTimes& r = reqs[i];
    r.due = static_cast<Ns>(i) * 5 * kMs;
    r.send_begin = send[i] * kMs;
    r.send_end = r.send_begin;
    r.start = r.send_end;
    r.end = r.start + kMs;
    r.complete = r.end;
  }
  EXPECT_EQ(reqs[0].late(), 0);
  EXPECT_EQ(reqs[1].late(), 25 * kMs);
  EXPECT_EQ(reqs[3].late(), 17 * kMs);
  EXPECT_EQ(reqs[1].latency(), 26 * kMs);
  // Early sends never count as negative lateness.
  RequestTimes early;
  early.due = 10 * kMs;
  early.send_begin = 9 * kMs;
  EXPECT_EQ(early.late(), 0);

  const PhaseTimings t = account(reqs);
  EXPECT_EQ(t.late_ms.n, 4u);
  EXPECT_DOUBLE_EQ(t.late_ms.max, 25.0);
  // A request that never completed still counts its lateness, not latency.
  reqs.push_back(RequestTimes{.due = 0, .send_begin = 2 * kMs});
  const PhaseTimings t2 = account(reqs);
  EXPECT_EQ(t2.late_ms.n, 5u);
  EXPECT_EQ(t2.latency_ms.n, 4u);
}

// A burst's rate counts completions inside it, from its first to its last.
TEST(BurstRate, CountsCompletionsInsideTheBurst) {
  std::vector<RequestTimes> reqs;
  const auto complete_at = [&](Ns t) {
    RequestTimes r;
    r.due = r.send_begin = r.send_end = t;
    r.complete = t;
    reqs.push_back(r);
  };
  // One completion every 10 ms from 5 ms to 995 ms: 99 gaps in 990 ms.
  for (int i = 0; i < 100; ++i) complete_at(5 * kMs + i * 10 * kMs);
  EXPECT_NEAR(burst_rate(reqs, 0, 1000 * kMs), 100.0, 1e-9);
  // Completions outside [begin, end) and requests never completed count
  // for nothing; fewer than two completions give 0.
  reqs.push_back(RequestTimes{.due = 0});
  complete_at(1500 * kMs);
  EXPECT_NEAR(burst_rate(reqs, 0, 1000 * kMs), 100.0, 1e-9);
  EXPECT_EQ(burst_rate(reqs, 1000 * kMs, 2000 * kMs), 0.0);
}

// Time stolen from a lane comes off the charged latency and off the burst
// time capacity divides by, shared over the lanes; the speed scale applies
// to what is left.
TEST(StolenTime, ChargedLatencyAndRateExcludeIt) {
  RequestTimes r;
  r.due = 0;
  r.complete = 12 * kMs;
  r.stolen = 3 * kMs;
  EXPECT_EQ(r.wall_latency(), 12 * kMs);
  EXPECT_EQ(r.latency(), 9 * kMs);
  const PhaseTimings t = account({r});
  EXPECT_DOUBLE_EQ(t.latency_ms.p50, 9.0);
  EXPECT_DOUBLE_EQ(t.wall_latency_ms.p50, 12.0);
  EXPECT_DOUBLE_EQ(t.stolen_ms.p50, 3.0);
  r.scale = 0.5;
  EXPECT_EQ(r.latency(), 4500 * 1000);

  // 101 completions 10 ms apart, 2 ms stolen from each: over 2 lanes that
  // is 101 ms less time, so 100 / 0.899 s.
  std::vector<RequestTimes> reqs;
  for (int i = 0; i <= 100; ++i) {
    RequestTimes c;
    c.due = c.complete = i * 10 * kMs;
    c.stolen = 2 * kMs;
    reqs.push_back(c);
  }
  EXPECT_NEAR(burst_rate(reqs, 0, 1001 * kMs), 100.0, 1e-9);
  EXPECT_NEAR(burst_rate(reqs, 0, 1001 * kMs, 2), 100.0 / 0.899, 1e-9);
}

// The speed scale is 1 at the reference anchor cost and follows the
// anchor with the elasticity: where the anchor costs twice the reference,
// a measured time shrinks by 2^-0.7.
TEST(SpeedScale, FollowsTheAnchorWithTheElasticity) {
  EXPECT_DOUBLE_EQ(speed_scale(kAnchorReferenceNs), 1.0);
  EXPECT_NEAR(speed_scale(2.0 * kAnchorReferenceNs),
              std::pow(0.5, kAnchorElasticity), 1e-12);
  EXPECT_DOUBLE_EQ(speed_scale(0.0), 1.0);
}

TEST(Schedules, SameSeedSamePoissonSchedule) {
  const Ns dur = 10'000 * kMs;
  const auto a = poisson_schedule(150.0, dur, 7);
  const auto b = poisson_schedule(150.0, dur, 7);
  const auto c = poisson_schedule(150.0, dur, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // 1500 expected arrivals; 5 sigma is about 200.
  EXPECT_NEAR(static_cast<double>(a.size()), 1500.0, 200.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), dur);
}

TEST(Schedules, FrameDueInterleavesStreams) {
  EXPECT_EQ(frame_due(0, 0, 3, 30.0), 0);
  EXPECT_NEAR(static_cast<double>(frame_due(1, 0, 3, 30.0)), 1e9 / 30, 1);
  EXPECT_NEAR(static_cast<double>(frame_due(0, 1, 3, 30.0)), 1e9 / 90, 1);
}

bool same(const qmcu::nn::Tensor& a, const qmcu::nn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

TEST(Schedules, SameSeedSameCameraStream) {
  const CameraStream a = make_camera_stream(5, 0, 32, 8);
  const CameraStream b = make_camera_stream(5, 0, 32, 8);
  const CameraStream other_seed = make_camera_stream(6, 0, 32, 8);
  const CameraStream other_stream = make_camera_stream(5, 1, 32, 8);
  ASSERT_EQ(a.period(), 32);  // four scenes of 8 frames
  ASSERT_EQ(a.distinct.size(), b.distinct.size());
  for (std::size_t i = 0; i < a.distinct.size(); ++i) {
    EXPECT_TRUE(same(a.distinct[i], b.distinct[i]));
  }
  EXPECT_EQ(a.frame, b.frame);
  EXPECT_FALSE(same(a.distinct[0], other_seed.distinct[0]));
  EXPECT_FALSE(same(a.distinct[0], other_stream.distinct[0]));
  // Even frames hold the previous frame; a scene cut starts each scene.
  EXPECT_EQ(a.frame[2], a.frame[1]);
  EXPECT_NE(a.frame[8], a.frame[7]);
  EXPECT_GT(changed_pixel_fraction(a), 0.0);
  EXPECT_LT(changed_pixel_fraction(a), 1.0);
}

TEST(Trace, SelfTimeSubtractsUnionOfChildren) {
  std::vector<Span> spans = {
      {"request", 0, 10 * kMs, -1, 1, 0},
      {"a", 1 * kMs, 3 * kMs, 0, 1, 0},
      {"b", 2 * kMs, 5 * kMs, 0, 1, 0},  // overlaps a
      {"c", 8 * kMs, 12 * kMs, 0, 1, 0},  // clipped at the parent's end
  };
  const auto st = self_times(spans);
  ASSERT_EQ(st.size(), 4u);
  for (const SelfTime& s : st) {
    if (s.name == "request") {
      EXPECT_DOUBLE_EQ(s.total_ms, 10.0);
      EXPECT_DOUBLE_EQ(s.self_ms, 4.0);
    }
    if (s.name == "c") EXPECT_DOUBLE_EQ(s.self_ms, 4.0);
  }
}

}  // namespace
}  // namespace perfbench
