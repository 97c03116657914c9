// harness.h — drives ServingFrontend the way a deployment does and times
// each request or frame from outside the library.
//
// ServedModel forwards to a CompiledPatchQuantModel and is what every lane
// serves; its only addition is a Probe call before and after each
// run/run_streaming, which looks the input up by address (the frontend
// moves the caller's tensor into the lane without copying it) to find the
// request it belongs to. The probe stamps service start/end, the time
// stolen from the lane and the lane's CPU, and, in the open-loop request
// phase, tells the client-side collector which request just finished.
#pragma once

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "camera.h"
#include "nn/plan_artifact.h"
#include "nn/serving/serving_frontend.h"
#include "patch/compiled_patch_model.h"
#include "stats.h"

namespace perfbench {

namespace nn = qmcu::nn;
namespace patch = qmcu::patch;

// Nanoseconds since the process's benchmark epoch (steady clock).
Ns now_ns();

// CPU time of the calling thread / of the whole process. On a
// paravirtualised guest both exclude the time the hypervisor stole.
Ns thread_cpu_ns();
Ns process_cpu_ns();

class Probe {
 public:
  struct Ticket {
    RequestTimes* rec = nullptr;
    std::size_t idx = 0;
  };

  // Points the probe at one phase's records. Call only while no request is
  // in flight; `on_done` (may be empty) runs on the lane after the model
  // returned and before the frontend resolves the future.
  void bind(std::vector<RequestTimes>* times, bool timed,
            std::function<void(std::size_t)> on_done = {});
  void unbind() { bind(nullptr, false); }

  // Client side: the tensor at `key` is request `idx` of the bound phase.
  void expect(const float* key, std::size_t idx);

  // One model call as the lane saw it (RequestTimes start/end/stolen/cpu).
  struct LaneCall {
    Ns start = 0;
    Ns end = 0;
    Ns stolen = 0;
    int cpu = -1;
  };

  // Lane side. Inputs the client never announced (warm-up, oracle) get an
  // empty ticket.
  Ticket begin(const float* key);
  void end(const Ticket& t, const LaneCall& call);

 private:
  std::mutex mu_;
  std::unordered_map<const float*, std::size_t> pending_;
  std::vector<RequestTimes>* times_ = nullptr;
  bool timed_ = false;
  std::function<void(std::size_t)> on_done_;
};

class ServedModel {
 public:
  ServedModel(std::unique_ptr<patch::CompiledPatchQuantModel> model,
              std::shared_ptr<const nn::PlanArtifact> artifact, Probe& probe)
      : artifact_(std::move(artifact)), model_(std::move(model)),
        probe_(&probe) {}

  [[nodiscard]] nn::QTensor run(const nn::Tensor& in) const {
    return forward(in, [&] { return model_->run(in); });
  }
  [[nodiscard]] nn::QTensor run(const nn::Tensor& in,
                                nn::WorkerPool* pool) const {
    return forward(in, [&] { return model_->run(in, pool); });
  }
  [[nodiscard]] nn::QTensor run_streaming(const nn::Tensor& in,
                                          nn::WorkerPool* pool,
                                          patch::StreamState& state) const {
    return forward(in, [&] { return model_->run_streaming(in, pool, state); });
  }

  [[nodiscard]] const patch::PatchPlan& plan() const { return model_->plan(); }
  [[nodiscard]] std::span<const patch::PipelinedTailLayer> pipelined_tail()
      const {
    return model_->pipelined_tail();
  }
  void set_arena_source(std::shared_ptr<nn::ArenaSlab> slab) {
    model_->set_arena_source(std::move(slab));
  }

 private:
  template <class F>
  nn::QTensor forward(const nn::Tensor& in, F&& f) const {
    const Probe::Ticket t = probe_->begin(in.data().data());
    Probe::LaneCall call;
    call.start = now_ns();
    const Ns cpu0 = thread_cpu_ns();
    nn::QTensor out = f();
    const Ns cpu = thread_cpu_ns() - cpu0;
    call.end = now_ns();
    call.stolen = std::max<Ns>(0, call.end - call.start - cpu);
    call.cpu = sched_getcpu();
    probe_->end(t, call);
    return out;
  }

  std::shared_ptr<const nn::PlanArtifact> artifact_;  // the model views it
  std::unique_ptr<patch::CompiledPatchQuantModel> model_;
  Probe* probe_;
};

using Frontend = nn::serving::ServingFrontend<ServedModel>;

// Distinct request inputs and the bytes each must produce.
struct Pool {
  std::vector<nn::Tensor> inputs;
  std::vector<nn::QTensor> expected;
};

// A camera stream served through the frontend, with its expected output
// per distinct frame and the next frame number to send.
struct ServedStream {
  CameraStream camera;
  std::vector<nn::QTensor> expected;  // parallel to camera.distinct
  std::uint64_t id = 0;               // frontend stream id
  std::int64_t next_frame = 0;
};

bool same_bytes(const nn::QTensor& a, const nn::QTensor& b);

// What one timed phase did. Every submitted item ends in exactly one of
// completed (output checked), rejected, expired or thrown.
struct PhaseResult {
  std::vector<RequestTimes> times;
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t mismatches = 0;  // completed with wrong bytes
  std::int64_t rejected = 0;
  std::int64_t expired = 0;
  std::int64_t thrown = 0;
  Ns first_due = 0;
  // Closed loops: the [begin, end) of each burst of traffic. Between bursts
  // the lanes drain and idle briefly so a SpeedMonitor can sample them.
  std::vector<std::pair<Ns, Ns>> bursts;

  [[nodiscard]] std::int64_t failed() const {
    return mismatches + rejected + expired + thrown;
  }
  [[nodiscard]] bool balanced() const {
    return completed + rejected + expired + thrown == submitted;
  }
};

// Open loop: Poisson arrivals at `rate` req/s for `duration`, each input
// drawn from the pool by a seeded stream. Latency runs from each request's
// due time to the moment a client thread holds its result.
PhaseResult open_loop_requests(Frontend& fe, Probe& probe, const Pool& pool,
                               double rate, Ns duration, std::uint64_t seed,
                               bool timed);

// Closed loop: one client keeps `outstanding` requests in flight for
// `duration` (1 = a single synchronous caller), in bursts of kBurst
// separated by a drain and kBurstGap of idle lanes.
inline constexpr Ns kBurst = 500'000'000;
inline constexpr Ns kBurstGap = 50'000'000;
PhaseResult closed_loop_requests(Frontend& fe, Probe& probe, const Pool& pool,
                                 int outstanding, Ns duration,
                                 std::uint64_t seed, bool timed);

// Open loop over camera streams: every stream sends its next frame at a
// fixed `fps`, staggered so the streams interleave.
PhaseResult open_loop_streams(Frontend& fe, Probe& probe,
                              std::vector<ServedStream>& streams, double fps,
                              Ns duration, bool timed);

// Closed loop over camera streams: each stream keeps `outstanding` frames
// in flight for `duration`, in bursts like closed_loop_requests.
PhaseResult closed_loop_streams(Frontend& fe, Probe& probe,
                                std::vector<ServedStream>& streams,
                                int outstanding, Ns duration, bool timed);

// Samples the speed of a set of CPUs while they would otherwise idle: one
// SCHED_IDLE thread per CPU runs anchor units back to back, so it gets the
// CPU only when the lane pinned there has nothing to do and yields it the
// moment the lane wakes. Read the samples after stop().
class SpeedMonitor {
 public:
  explicit SpeedMonitor(const std::vector<int>& cpus);
  ~SpeedMonitor() { stop(); }
  SpeedMonitor(const SpeedMonitor&) = delete;
  SpeedMonitor& operator=(const SpeedMonitor&) = delete;

  void stop();

  // Mean anchor cost (ns) of the samples on `cpu` that ended in [a, b],
  // widening the window until it holds at least four (0 when the CPU has
  // none at all).
  [[nodiscard]] double mean_near(int cpu, Ns a, Ns b) const;
  // The mean of mean_near over every monitored CPU.
  [[nodiscard]] double mean_near_all(Ns a, Ns b) const;

 private:
  struct Sample {
    Ns end;
    Ns cost;
  };
  struct Cpu {
    int id = -1;
    std::vector<Sample> samples;
    std::thread thread;
  };
  std::vector<std::unique_ptr<Cpu>> cpus_;
  std::atomic<bool> running_{true};
};

// Host fingerprint: nproc, detected ISA and GEMM generation, and every
// QMCU_* environment variable set for the run.
std::map<std::string, std::string> host_fingerprint();

}  // namespace perfbench
