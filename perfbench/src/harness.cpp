#include "harness.h"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <thread>
#include <utility>

#include "anchor.h"
#include "nn/ops/simd/cpu_features.h"
#include "nn/ops/simd/simd_kernels.h"
#include "nn/rng.h"
#include "nn/runtime/cpu_affinity.h"
#include "trace.h"

extern char** environ;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

// The generator owns a core no lane uses, so it waits for each due time by
// yielding instead of sleeping: a sleeping thread's wake-up can take
// milliseconds on a loaded virtual machine, and every late send would be
// charged to the request as latency.
void wait_until_ns(Ns t) {
  while (now_ns() < t) std::this_thread::yield();
}

// Phases size their records up front so the lanes can stamp them while the
// client is still appending; a closed loop never outruns this many per
// second.
constexpr double kMaxItemsPerSecond = 5000.0;

std::size_t capacity_for(Ns duration) {
  return 64 + static_cast<std::size_t>(static_cast<double>(duration) * 1e-9 *
                                       kMaxItemsPerSecond);
}

enum class Outcome : std::uint8_t {
  Pending,
  Ok,
  Mismatch,
  Rejected,
  Expired,
  Thrown
};

// Waits for one result, stamps its completion and checks its bytes.
Outcome resolve(const std::shared_future<nn::QTensor>& f,
                const nn::QTensor& expected, RequestTimes& rec) {
  try {
    const nn::QTensor& out = f.get();
    rec.complete = now_ns();
    return same_bytes(out, expected) ? Outcome::Ok : Outcome::Mismatch;
  } catch (const nn::serving::RejectedError&) {
    return Outcome::Rejected;
  } catch (const nn::serving::DeadlineExceededError&) {
    return Outcome::Expired;
  } catch (...) {
    return Outcome::Thrown;
  }
}

void tally(PhaseResult& r, const std::vector<Outcome>& outcome, std::size_t n) {
  r.times.resize(n);
  r.submitted = static_cast<std::int64_t>(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (outcome[i]) {
      case Outcome::Ok: ++r.completed; break;
      case Outcome::Mismatch: ++r.completed; ++r.mismatches; break;
      case Outcome::Rejected: ++r.rejected; break;
      case Outcome::Expired: ++r.expired; break;
      case Outcome::Thrown:
      case Outcome::Pending: ++r.thrown; break;
    }
  }
}

// A client thread that resolves items in the order they are pushed.
class FifoCollector {
 public:
  explicit FifoCollector(std::function<void(std::size_t)> handle)
      : thread_([this, handle = std::move(handle)] { loop(handle); }) {}
  FifoCollector(const FifoCollector&) = delete;
  FifoCollector& operator=(const FifoCollector&) = delete;
  ~FifoCollector() { finish(); }

  void push(std::size_t idx) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      q_.push_back(idx);
    }
    cv_.notify_one();
  }

  // Handles everything pushed so far, then joins.
  void finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void loop(const std::function<void(std::size_t)>& handle) {
    for (;;) {
      std::size_t idx = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return closed_ || !q_.empty(); });
        if (q_.empty()) return;
        idx = q_.front();
        q_.pop_front();
      }
      handle(idx);
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::size_t> q_;
  bool closed_ = false;
  std::thread thread_;  // last: starts after the members it uses exist
};

// Runs `burst(end)` — keep the lanes busy until `end`, then drain — in
// kBurst slices of `duration`, idling kBurstGap between them, and records
// each slice in r.bursts. Stops early once `n` reaches `cap`.
template <class Burst>
void in_bursts(PhaseResult& r, Ns duration, const std::size_t& n,
               std::size_t cap, Burst&& burst) {
  r.first_due = now_ns();
  for (Ns left = duration; left > 0 && n < cap;) {
    const Ns begin = now_ns();
    const Ns end = begin + std::min(left, kBurst);
    burst(end);
    r.bursts.emplace_back(begin, end);
    left -= end - begin;
    std::this_thread::sleep_for(std::chrono::nanoseconds(kBurstGap));
  }
}

const nn::QTensor& expected_frame(const ServedStream& s, std::int64_t frame) {
  const int period = s.camera.period();
  return s.expected[static_cast<std::size_t>(
      s.camera.frame[static_cast<std::size_t>(frame % period)])];
}

}  // namespace

Ns now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

namespace {
Ns cpu_clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<Ns>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
}  // namespace

Ns thread_cpu_ns() { return cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID); }
Ns process_cpu_ns() { return cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

void Probe::bind(std::vector<RequestTimes>* times, bool timed,
                 std::function<void(std::size_t)> on_done) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_.clear();
  times_ = times;
  timed_ = timed;
  on_done_ = std::move(on_done);
}

void Probe::expect(const float* key, std::size_t idx) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_[key] = idx;
}

Probe::Ticket Probe::begin(const float* key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = pending_.find(key);
  if (it == pending_.end() || times_ == nullptr) return {};
  Ticket t{&(*times_)[it->second], it->second};
  pending_.erase(it);
  return t;
}

void Probe::end(const Ticket& t, const LaneCall& call) {
  if (t.rec == nullptr) return;
  t.rec->start = call.start;
  t.rec->end = call.end;
  t.rec->stolen = call.stolen;
  t.rec->cpu = call.cpu;
  // timed_ and on_done_ change only between phases (bind happens-before
  // the begin() that produced this ticket).
  if (timed_) t.rec->tid = thread_slot();
  if (on_done_) on_done_(t.idx);
}

SpeedMonitor::SpeedMonitor(const std::vector<int>& cpus) {
  for (const int id : cpus) {
    auto c = std::make_unique<Cpu>();
    c->id = id;
    c->samples.reserve(1 << 16);
    Cpu* raw = c.get();
    c->thread = std::thread([this, raw] {
      (void)qmcu::nn::runtime::pin_current_thread(std::vector<int>{raw->id});
      sched_param sp{};
      (void)sched_setscheduler(0, SCHED_IDLE, &sp);
      while (running_.load(std::memory_order_relaxed)) {
        const Ns cost = anchor_unit_ns();
        raw->samples.push_back({now_ns(), cost});
      }
    });
    cpus_.push_back(std::move(c));
  }
}

void SpeedMonitor::stop() {
  running_.store(false);
  for (auto& c : cpus_) {
    if (c->thread.joinable()) c->thread.join();
  }
}

double SpeedMonitor::mean_near(int cpu, Ns a, Ns b) const {
  constexpr std::size_t min_samples = 4;
  for (const auto& c : cpus_) {
    if (c->id != cpu || c->samples.empty()) continue;
    const std::vector<Sample>& s = c->samples;
    const auto at = [&s](Ns t) {
      return std::lower_bound(s.begin(), s.end(), t,
                              [](const Sample& x, Ns v) { return x.end < v; });
    };
    for (Ns widen = 0;; widen = std::max<Ns>(2 * widen, 10'000'000)) {
      const auto lo = at(a - widen);
      const auto hi = at(b + widen + 1);
      const bool all = lo == s.begin() && hi == s.end();
      if (static_cast<std::size_t>(hi - lo) >= min_samples || all) {
        double sum = 0.0;
        for (auto it = lo; it != hi; ++it) sum += static_cast<double>(it->cost);
        return hi > lo ? sum / static_cast<double>(hi - lo) : 0.0;
      }
    }
  }
  return 0.0;
}

double SpeedMonitor::mean_near_all(Ns a, Ns b) const {
  double sum = 0.0;
  int n = 0;
  for (const auto& c : cpus_) {
    const double m = mean_near(c->id, a, b);
    if (m > 0.0) {
      sum += m;
      ++n;
    }
  }
  return n > 0 ? sum / n : 0.0;
}

bool same_bytes(const nn::QTensor& a, const nn::QTensor& b) {
  return a.shape() == b.shape() && a.params() == b.params() &&
         std::memcmp(a.data().data(), b.data().data(), a.data().size()) == 0;
}

PhaseResult open_loop_requests(Frontend& fe, Probe& probe, const Pool& pool,
                               double rate, Ns duration, std::uint64_t seed,
                               bool timed) {
  const std::vector<Ns> schedule = poisson_schedule(rate, duration, seed);
  const std::size_t n = schedule.size();
  std::vector<std::size_t> item(n);
  qmcu::nn::Rng pick(seed ^ 0x9001u);
  for (std::size_t& it : item) it = pick.next_u64() % pool.inputs.size();

  PhaseResult r;
  r.times.resize(n);
  std::vector<std::shared_future<nn::QTensor>> futures(n);
  std::unique_ptr<std::atomic<bool>[]> published(new std::atomic<bool>[n]);
  for (std::size_t i = 0; i < n; ++i) published[i].store(false);
  std::vector<Outcome> outcome(n, Outcome::Pending);

  // Requests finish out of order across lanes, so the collector resolves
  // them in the order the lanes report them done.
  FifoCollector collector([&](std::size_t idx) {
    while (!published[idx].load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    outcome[idx] = resolve(futures[idx], pool.expected[item[idx]], r.times[idx]);
  });
  probe.bind(&r.times, timed, [&collector](std::size_t idx) {
    collector.push(idx);
  });

  const Ns t0 = now_ns() + 2'000'000;
  r.first_due = t0;
  for (std::size_t i = 0; i < n; ++i) {
    RequestTimes& rec = r.times[i];
    rec.due = t0 + schedule[i];
    wait_until_ns(rec.due);
    rec.send_begin = now_ns();
    nn::Tensor req = pool.inputs[item[i]];
    probe.expect(req.data().data(), i);
    futures[i] = fe.submit(std::move(req)).share();
    rec.send_end = now_ns();
    published[i].store(true, std::memory_order_release);
  }
  for (const auto& f : futures) f.wait();
  collector.finish();
  probe.unbind();
  // Whatever the collector never saw was refused, expired or threw.
  for (std::size_t i = 0; i < n; ++i) {
    if (outcome[i] == Outcome::Pending) {
      outcome[i] = resolve(futures[i], pool.expected[item[i]], r.times[i]);
      if (outcome[i] == Outcome::Ok) outcome[i] = Outcome::Thrown;
    }
  }
  tally(r, outcome, n);
  return r;
}

PhaseResult closed_loop_requests(Frontend& fe, Probe& probe, const Pool& pool,
                                 int outstanding, Ns duration,
                                 std::uint64_t seed, bool timed) {
  const std::size_t cap = capacity_for(duration);
  PhaseResult r;
  r.times.resize(cap);
  std::vector<std::size_t> item(cap);
  qmcu::nn::Rng pick(seed ^ 0xc105edu);
  for (std::size_t& it : item) it = pick.next_u64() % pool.inputs.size();
  std::vector<Outcome> outcome(cap, Outcome::Pending);
  probe.bind(&r.times, timed);

  std::deque<std::pair<std::size_t, std::shared_future<nn::QTensor>>> q;
  std::size_t n = 0;
  in_bursts(r, duration, n, cap, [&](Ns burst_end) {
    for (;;) {
      while (static_cast<int>(q.size()) < outstanding && n < cap &&
             now_ns() < burst_end) {
        RequestTimes& rec = r.times[n];
        rec.due = rec.send_begin = now_ns();
        nn::Tensor req = pool.inputs[item[n]];
        probe.expect(req.data().data(), n);
        q.emplace_back(n, fe.submit(std::move(req)).share());
        rec.send_end = now_ns();
        ++n;
      }
      if (q.empty()) return;
      const auto [idx, f] = q.front();
      q.pop_front();
      outcome[idx] = resolve(f, pool.expected[item[idx]], r.times[idx]);
    }
  });
  probe.unbind();
  tally(r, outcome, n);
  return r;
}

PhaseResult open_loop_streams(Frontend& fe, Probe& probe,
                              std::vector<ServedStream>& streams, double fps,
                              Ns duration, bool timed) {
  const int ns = static_cast<int>(streams.size());
  std::vector<Ns> due;
  std::vector<std::pair<int, std::int64_t>> item;  // (stream, frame number)
  for (int f = 0;; ++f) {
    const Ns first = frame_due(f, 0, ns, fps);
    if (first >= duration) break;
    for (int s = 0; s < ns; ++s) {
      const Ns d = frame_due(f, s, ns, fps);
      if (d >= duration) break;
      due.push_back(d);
      item.emplace_back(s, streams[static_cast<std::size_t>(s)].next_frame++);
    }
  }
  const std::size_t n = due.size();

  PhaseResult r;
  r.times.resize(n);
  std::vector<std::shared_future<nn::QTensor>> futures(n);
  std::vector<Outcome> outcome(n, Outcome::Pending);
  probe.bind(&r.times, timed);
  // Frames of one stream complete in order on the stream's lane, so one
  // in-order collector per stream sees each completion when it happens.
  std::vector<std::unique_ptr<FifoCollector>> collectors;
  for (int s = 0; s < ns; ++s) {
    collectors.push_back(std::make_unique<FifoCollector>([&](std::size_t idx) {
      const auto& [stream, frame] = item[idx];
      outcome[idx] =
          resolve(futures[idx],
                  expected_frame(streams[static_cast<std::size_t>(stream)],
                                 frame),
                  r.times[idx]);
    }));
  }

  const Ns t0 = now_ns() + 2'000'000;
  r.first_due = t0;
  for (std::size_t i = 0; i < n; ++i) {
    RequestTimes& rec = r.times[i];
    const auto& [s, frame] = item[i];
    ServedStream& st = streams[static_cast<std::size_t>(s)];
    rec.due = t0 + due[i];
    wait_until_ns(rec.due);
    rec.send_begin = now_ns();
    nn::Tensor f = st.camera.at(frame);
    probe.expect(f.data().data(), i);
    futures[i] = fe.submit_stream(st.id, std::move(f)).share();
    rec.send_end = now_ns();
    collectors[static_cast<std::size_t>(s)]->push(i);
  }
  for (auto& c : collectors) c->finish();
  probe.unbind();
  tally(r, outcome, n);
  return r;
}

PhaseResult closed_loop_streams(Frontend& fe, Probe& probe,
                                std::vector<ServedStream>& streams,
                                int outstanding, Ns duration, bool timed) {
  const std::size_t cap = capacity_for(duration);
  PhaseResult r;
  r.times.resize(cap);
  std::vector<std::pair<int, std::int64_t>> item(cap);
  std::vector<Outcome> outcome(cap, Outcome::Pending);
  probe.bind(&r.times, timed);

  using InFlight = std::deque<std::pair<std::size_t, std::shared_future<nn::QTensor>>>;
  std::vector<InFlight> q(streams.size());
  std::size_t n = 0;
  in_bursts(r, duration, n, cap, [&](Ns burst_end) {
    for (;;) {
      bool any = false;
      for (std::size_t s = 0; s < streams.size(); ++s) {
        ServedStream& st = streams[s];
        while (static_cast<int>(q[s].size()) < outstanding && n < cap &&
               now_ns() < burst_end) {
          RequestTimes& rec = r.times[n];
          rec.due = rec.send_begin = now_ns();
          item[n] = {static_cast<int>(s), st.next_frame++};
          nn::Tensor f = st.camera.at(item[n].second);
          probe.expect(f.data().data(), n);
          q[s].emplace_back(n, fe.submit_stream(st.id, std::move(f)).share());
          rec.send_end = now_ns();
          ++n;
        }
        if (q[s].empty()) continue;
        any = true;
        const auto [idx, f] = q[s].front();
        q[s].pop_front();
        outcome[idx] = resolve(f, expected_frame(st, item[idx].second),
                               r.times[idx]);
      }
      if (!any) return;
    }
  });
  probe.unbind();
  tally(r, outcome, n);
  return r;
}

std::map<std::string, std::string> host_fingerprint() {
  namespace simd = qmcu::nn::ops::simd;
  std::map<std::string, std::string> m;
  m["nproc"] = std::to_string(qmcu::nn::runtime::usable_cpus());
  m["hw_threads"] = std::to_string(std::thread::hardware_concurrency());
  m["isa"] = simd::isa_name(simd::detected_isa());
  m["dot_isa"] = simd::dot_isa_name(simd::detected_dot_isa());
  const simd::SimdKernels* k = simd::kernels();
  m["gemm"] = k == nullptr ? "scalar"
                           : std::string(k->name) +
                                 (k->gemm_dot ? " (dot-product)" : " (pair-madd)");
  std::string forced;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "QMCU_", 5) == 0) {
      if (!forced.empty()) forced += ' ';
      forced += *e;
    }
  }
  m["qmcu_env"] = forced.empty() ? "none" : forced;
  return m;
}

}  // namespace perfbench
