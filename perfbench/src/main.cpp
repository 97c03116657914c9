// perfbench — the serving benchmark of the QuantMCU runtime.
//
//   perfbench --workload serve_mixed|stream_camera
//             --seed N --seconds S --trace 0|1 --out-dir DIR
//
// Each workload plans a deployment, bakes/compiles it, loads it into every
// serving lane and serves seeded inputs through ServingFrontend. Expected
// output bytes are computed before the clock starts and every served
// output is compared with them. With --trace 0 the last stdout line is a
// JSON object carrying the end-to-end metrics; with --trace 1 it carries
// the per-module metrics and DIR/traces/<workload>.json holds the spans.
// perfbench/README.md defines every metric.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "anchor.h"
#include "core/quantmcu.h"
#include "core/vdpc.h"
#include "data/synthetic.h"
#include "harness.h"
#include "mcu/device.h"
#include "models/zoo.h"
#include "nn/compiled_model.h"
#include "nn/runtime/cpu_affinity.h"
#include "patch/patch_artifact.h"
#include "patch/streaming_diff.h"
#include "quant/calibration.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace core = qmcu::core;
namespace data = qmcu::data;
namespace mcu = qmcu::mcu;
namespace models = qmcu::models;
namespace quant = qmcu::quant;
using nn::serving::ServingConfig;

// serve_mixed's open-loop arrival rate: about a quarter of the capacity_rps
// the workload measured on a 4-core AVX2+VNNI host at the commit that
// defined the benchmark. Fixed on purpose: a faster runtime must see the
// same offered load and show less queueing, not more load. Low on purpose
// too: on a host whose virtual CPUs are preempted by other tenants, queueing
// near saturation multiplies every preemption into run-to-run swings.
constexpr double kServeMixedRate = 50.0;
constexpr int kPoolImages = 128;  // serve_mixed
constexpr double kCameraFps = 30.0;
// Share of an untraced run in the open-loop (latency) phase; the rest is
// the closed loop that measures capacity.
constexpr double kOpenShare = 0.7;
// Planning and set-up take well under a second while the host's speed
// drifts over tens of seconds, so both run in rounds spread over the run
// (before, between and after the timed phases), and report the median.
// Both are timed on the process CPU clock, which excludes the time the
// hypervisor stole, and scaled to the reference CPU speed (anchor.h) by
// kAnchorUnits anchor units run on the calling thread around each piece.
constexpr int kPlanRepsPerRound = 3;
constexpr int kSetupRepsPerRound = 5;
constexpr int kAnchorUnits = 3;
// Per-item speed: the mean anchor cost on the item's lane CPU within this
// margin of its model call (widened until it holds a few samples).
constexpr Ns kSpeedMargin = 20'000'000;
// Calibration images come from the dataset's own fixed seed: the
// deployment is part of the program, only the served inputs vary by seed.
constexpr std::uint64_t kCalibrationSeed = 0xda7a5e7ull;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out-dir") a.out_dir = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

Ns seconds_ns(double s) { return static_cast<Ns>(s * 1e9); }
double ms_between(Ns a, Ns b) { return ns_to_ms(b - a); }

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Metrics in print order.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  void print_lines() const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-28s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  [[nodiscard]] std::string json() const {
    std::string s = "{";
    char buf[96];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "{\"value\": %.17g, \"unit\": \"",
                    metrics_[i].value);
      s += (i ? ", \"" : "\"") + metrics_[i].name + "\": " + buf +
           metrics_[i].unit + "\"}";
    }
    return s + "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

// What a workload run produced.
struct RunResult {
  Report end_to_end;
  Report unbounded;  // printed, but not part of the JSON result
  Report layers;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;

  void count(const PhaseResult& r) {
    attempted += r.submitted;
    failed += r.failed();
    if (!r.balanced()) correct = false;
  }
};

// --- models and inputs -------------------------------------------------------

models::ModelConfig model_config(float width, int resolution, int classes) {
  models::ModelConfig mc;
  mc.width_multiplier = width;
  mc.resolution = resolution;
  mc.num_classes = classes;
  return mc;
}

data::SyntheticDataset dataset(data::DatasetKind kind, int resolution,
                               std::uint64_t seed) {
  data::DataConfig dc;
  dc.kind = kind;
  dc.resolution = resolution;
  dc.seed = seed;
  return data::SyntheticDataset(dc);
}

std::uint64_t input_seed(std::uint64_t seed) {
  return seed * 0x2545f4914f6cdd1dull + 0x1234567ull;
}

using RunFn = std::function<nn::QTensor(const nn::Tensor&)>;

// Expected output bytes for every input, and the mean over inputs of the
// SQNR (dB) of those dequantized outputs against the float model. Runs
// before the clock starts, on one thread per core; models are
// single-thread objects, so every thread builds its own reference
// (`make_ref`) and float model.
struct Oracle {
  std::vector<nn::QTensor> expected;
  double sqnr_db = 0.0;
};

Oracle compute_oracle(const nn::Graph& g, const std::vector<nn::Tensor>& inputs,
                      const std::function<RunFn()>& make_ref) {
  const Ns t0 = now_ns();
  const std::size_t n = inputs.size();
  Oracle o;
  o.expected.resize(n);
  std::vector<double> sqnr_db(n);
  (void)g.consumers(0);  // fill the graph's lazy cache before sharing it
  std::mutex mu;         // guards model construction and `error`
  std::exception_ptr error;
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    try {
      RunFn ref;
      std::unique_ptr<nn::CompiledModel> fm;
      {
        std::lock_guard<std::mutex> lock(mu);
        ref = make_ref();
        fm = std::make_unique<nn::CompiledModel>(g);
      }
      for (std::size_t i; (i = next.fetch_add(1)) < n;) {
        o.expected[i] = ref(inputs[i]);
        const nn::Tensor f = fm->run(inputs[i]);
        const nn::Tensor q = nn::dequantize(o.expected[i]);
        double signal = 0.0, noise = 0.0;
        for (std::size_t k = 0; k < f.data().size(); ++k) {
          const double e = static_cast<double>(f.data()[k]) - q.data()[k];
          signal += static_cast<double>(f.data()[k]) * f.data()[k];
          noise += e * e;
        }
        sqnr_db[i] = 10.0 * std::log10(signal / std::max(noise, 1e-30));
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  const int nt = std::clamp(nn::runtime::usable_cpus(), 1, 4);
  for (int t = 0; t < nt; ++t) threads.emplace_back(work);
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
  for (const double db : sqnr_db) o.sqnr_db += db / static_cast<double>(n);
  std::printf("oracle: %zu expected outputs and float references in %.2f s\n",
              n, ns_to_ms(now_ns() - t0) * 1e-3);
  return o;
}

RunFn artifact_runner(const std::string& path, nn::ops::KernelTier tier) {
  auto m = std::make_shared<patch::LoadedPatchModel>(
      patch::load_compiled_patch(path, tier));
  return [m](const nn::Tensor& in) { return m->model->run(in); };
}

// --- deployment planning ------------------------------------------------------

struct PlanTimes {
  std::vector<double> calibrate_ms, plan_ms, search_ms, materialize_ms,
      bake_ms;
  // The whole pipeline: process CPU seconds at the reference CPU speed.
  std::vector<double> scaled_s;
};

struct MixedDeployment {
  core::QuantMcuPlan plan;
  std::vector<quant::LayerRange> ranges;
  nn::ActivationQuantConfig cfg;
  std::vector<patch::BranchQuantConfig> branch_cfgs;
};

// The paper's deploy-time pipeline: calibrate, VDPC + VDQS search (MinPeak
// patch plan), materialise the searched configs, bake the QMCP artifact.
MixedDeployment plan_mixed(const nn::Graph& g, const mcu::Device& dev,
                           std::span<const nn::Tensor> calib,
                           const std::string& path, Tracer& tr,
                           PlanTimes& t) {
  MixedDeployment d;
  for (int rep = 0; rep < kPlanRepsPerRound; ++rep) {
    // Each stage's CPU time at the reference speed, from the anchors run
    // just before and just after it (the root span includes them).
    double scaled_s = 0.0;
    double anchor_before = anchor_mean_ns(kAnchorUnits);
    Ns cpu_mark = process_cpu_ns();
    const auto stage_done = [&] {
      const Ns cpu = process_cpu_ns() - cpu_mark;
      const double anchor_after = anchor_mean_ns(kAnchorUnits);
      scaled_s += ns_to_ms(cpu) * 1e-3 *
                  speed_scale(0.5 * (anchor_before + anchor_after));
      anchor_before = anchor_after;
      cpu_mark = process_cpu_ns();
    };
    const Ns t0 = now_ns();
    d.ranges = quant::calibrate_ranges(g, calib);
    const Ns t1 = now_ns();
    stage_done();
    const Ns t1b = now_ns();
    core::QuantMcuConfig qcfg;
    qcfg.planner = core::PatchPlannerKind::MinPeak;
    d.plan = core::build_quantmcu_plan(g, dev, calib, qcfg);
    const Ns t2 = now_ns();
    stage_done();
    const Ns t2b = now_ns();
    d.cfg = core::make_deployment_quant_config(g, d.plan, d.ranges);
    d.branch_cfgs = core::make_branch_quant_configs(g, d.plan, d.ranges);
    const Ns t3 = now_ns();
    patch::compile_to_artifact(g, d.plan.patch_plan.spec, d.cfg, d.branch_cfgs,
                               path);
    const Ns t4 = now_ns();
    stage_done();
    t.scaled_s.push_back(scaled_s);
    t.calibrate_ms.push_back(ms_between(t0, t1));
    t.plan_ms.push_back(ms_between(t1b, t2));
    t.search_ms.push_back(d.plan.search_seconds * 1e3);
    t.materialize_ms.push_back(ms_between(t2b, t3));
    t.bake_ms.push_back(ms_between(t3, t4));
    const int root = tr.add("plan", t0, t4);
    tr.add("quant.calibrate", t0, t1, root);
    tr.add("core.plan", t1b, t2, root);
    tr.add("core.materialize", t2b, t3, root);
    tr.add("artifact.bake", t3, t4, root);
  }
  return d;
}

// --- set-up ------------------------------------------------------------------

struct SetupTimes {
  std::vector<double> scaled_s;      // disk -> ready, as PlanTimes::scaled_s
  std::vector<double> build_ms;      // one lane's load_compiled_patch
  std::vector<double> construct_ms;  // frontend ctor minus model builds
};

// Runs one request on every lane (submit_batch puts one chunk per lane in
// the queue; repeat until each lane has served at least one).
void warm_lanes(Frontend& fe, const nn::Tensor& input) {
  for (int round = 0; round < 64; ++round) {
    const auto per = fe.per_session_requests();
    if (std::all_of(per.begin(), per.end(),
                    [](std::uint64_t n) { return n > 0; })) {
      return;
    }
    std::vector<nn::Tensor> batch(static_cast<std::size_t>(fe.num_sessions()),
                                  input);
    for (auto& f : fe.submit_batch(std::move(batch))) (void)f.get();
  }
  throw std::runtime_error("warm-up never reached every lane");
}

// Disk -> ready, kSetupRepsPerRound times; returns the last frontend. `build`
// makes one lane's model, `warm` runs the warm-up traffic.
std::unique_ptr<Frontend> set_up(
    const ServingConfig& cfg,
    const std::function<std::unique_ptr<ServedModel>()>& build,
    const std::function<void(Frontend&)>& warm, Tracer& tr, SetupTimes& st) {
  std::unique_ptr<Frontend> fe;
  for (int rep = 0; rep < kSetupRepsPerRound; ++rep) {
    fe.reset();
    std::vector<std::pair<Ns, Ns>> builds;
    const double anchor_before = anchor_mean_ns(kAnchorUnits);
    const Ns cpu0 = process_cpu_ns();
    const Ns t0 = now_ns();
    fe = std::make_unique<Frontend>(
        cfg, [&](int, const std::shared_ptr<nn::ArenaSlab>& slab) {
          const Ns a = now_ns();
          std::unique_ptr<ServedModel> m = build();
          m->set_arena_source(slab);
          builds.emplace_back(a, now_ns());
          return m;
        });
    const Ns t1 = now_ns();
    warm(*fe);
    const Ns t2 = now_ns();
    const Ns cpu = process_cpu_ns() - cpu0;
    const double anchor_after = anchor_mean_ns(kAnchorUnits);
    st.scaled_s.push_back(ns_to_ms(cpu) * 1e-3 *
                          speed_scale(0.5 * (anchor_before + anchor_after)));
    double build_total = 0.0;
    for (const auto& [a, b] : builds) {
      st.build_ms.push_back(ms_between(a, b));
      build_total += ms_between(a, b);
    }
    st.construct_ms.push_back(ms_between(t0, t1) - build_total);
    const int root = tr.add("setup", t0, t2);
    const int ctor = tr.add("serving.construct", t0, t1, root);
    for (const auto& [a, b] : builds) tr.add("artifact.load", a, b, ctor);
    tr.add("serving.warmup", t1, t2, root);
  }
  return fe;
}

// Moves the calling thread (the load generator) and the collector threads
// it starts onto the CPUs no lane is pinned to (CoreBudget pins lanes to
// [0, core_budget)); 0 lane cores = every CPU. Best-effort, like the lane
// pinning itself.
void pin_client_threads(int lane_cores) {
  std::vector<int> spare;
  for (int c = lane_cores; c < nn::runtime::usable_cpus(); ++c) {
    spare.push_back(c);
  }
  if (!spare.empty()) (void)nn::runtime::pin_current_thread(spare);
}

ServingConfig serving_config(int sessions, int cores) {
  ServingConfig cfg;
  cfg.sessions = sessions;
  cfg.core_budget = cores;
  return cfg;
}

// --- per-module figures --------------------------------------------------------

// p50 of `reps` runs over `inputs` (after two warm-up runs); `pool` null =
// the sequential path.
double run_p50(const patch::CompiledPatchQuantModel& m,
               const std::vector<nn::Tensor>& inputs, nn::WorkerPool* pool) {
  constexpr int kReps = 31;
  for (int i = 0; i < 2; ++i) (void)m.run(inputs[0], pool);
  std::vector<double> ms;
  for (int i = 0; i < kReps; ++i) {
    const nn::Tensor& in = inputs[static_cast<std::size_t>(i) % inputs.size()];
    const Ns a = now_ns();
    (void)m.run(in, pool);
    ms.push_back(ms_between(a, now_ns()));
  }
  return median(std::move(ms));
}

struct BitStats {
  double mean_act_bits = 0.0;
  double subbyte_step_frac = 0.0;
  double subbyte_work_frac = 0.0;  // MACs whose input activations are < 8 bit
};

BitStats bit_stats(const nn::Graph& g, const patch::CompiledPatchQuantModel& m) {
  const patch::PatchPlan& plan = m.plan();
  BitStats s;
  double steps = 0.0, bits = 0.0, sub_steps = 0.0;
  double macs = 0.0, sub_macs = 0.0;
  const auto input_bits = [&](int b, int layer) {
    const auto& ins = g.layer(layer).inputs;
    if (ins.empty()) return 8;
    const int producer = ins[0];
    const int ps = b < 0 ? -1
                         : plan.branches[static_cast<std::size_t>(b)].step_of(
                               producer);
    return ps >= 0 ? m.step_params(b, ps).bits
                   : m.effective_params()[static_cast<std::size_t>(producer)]
                         .bits;
  };
  for (std::size_t b = 0; b < plan.branches.size(); ++b) {
    const patch::PatchBranch& br = plan.branches[b];
    for (std::size_t si = 0; si < br.steps.size(); ++si) {
      const int sb = m.step_params(static_cast<int>(b), static_cast<int>(si)).bits;
      steps += 1.0;
      bits += sb;
      sub_steps += sb < 8 ? 1.0 : 0.0;
      const double mac = static_cast<double>(br.steps[si].macs);
      if (mac == 0.0) continue;
      macs += mac;
      if (input_bits(static_cast<int>(b), br.steps[si].layer_id) < 8) {
        sub_macs += mac;
      }
    }
  }
  std::vector<bool> in_stage(static_cast<std::size_t>(g.size()), false);
  for (const int id : plan.stage_layers) in_stage[static_cast<std::size_t>(id)] = true;
  for (int id = 0; id < g.size(); ++id) {
    const double mac = static_cast<double>(g.macs(id));
    if (in_stage[static_cast<std::size_t>(id)] || mac == 0.0) continue;
    macs += mac;
    if (input_bits(-1, id) < 8) sub_macs += mac;
  }
  s.mean_act_bits = steps > 0 ? bits / steps : 0.0;
  s.subbyte_step_frac = steps > 0 ? sub_steps / steps : 0.0;
  s.subbyte_work_frac = macs > 0 ? sub_macs / macs : 0.0;
  return s;
}

// Eq. 1 classification cost and outlier share over `inputs`.
std::pair<double, double> classify(const std::vector<nn::Tensor>& inputs,
                                   const patch::PatchPlan& plan) {
  std::vector<double> ms;
  double outlier = 0.0;
  for (const nn::Tensor& in : inputs) {
    const Ns a = now_ns();
    const core::PatchClassification c =
        core::classify_patches(in, plan, core::VdpcConfig{});
    ms.push_back(ms_between(a, now_ns()));
    outlier += c.outlier_fraction();
  }
  return {median(std::move(ms)), outlier / static_cast<double>(inputs.size())};
}

// Request/frame spans of one traced phase, rebuilt from its timelines.
void add_request_spans(Tracer& tr, const PhaseResult& r, const char* run_span) {
  const int client_tid = thread_slot();
  tr.name_thread(client_tid, "client: load generator");
  for (std::size_t i = 0; i < r.times.size(); ++i) {
    const RequestTimes& t = r.times[i];
    const std::uint64_t id = i + 1;
    if (t.tid >= 0) tr.name_thread(t.tid, "serving lane");
    const Ns stop = t.completed() ? t.complete : std::max(t.send_end, t.end);
    const int root = tr.add("request", t.due, stop, -1, id, client_tid);
    if (t.send_begin > t.due) {
      tr.add("loadgen.late", t.due, t.send_begin, root, id, client_tid);
    }
    tr.add("loadgen.send", t.send_begin, t.send_end, root, id, client_tid);
    if (t.served()) {
      tr.add("serving.queue", t.send_end, t.start, root, id, client_tid);
      tr.add(run_span, t.start, t.end, root, id, t.tid);
      if (t.completed()) {
        tr.add("serving.handoff", t.end, t.complete, root, id, client_tid);
      }
    } else if (t.completed()) {
      tr.add("serving.cached", t.send_end, t.complete, root, id, client_tid);
    }
  }
}

// Per-module figures of a traced run (0 = does not apply to the workload).
struct Layers {
  double calibrate_ms = 0, plan_ms = 0, search_ms = 0, materialize_ms = 0;
  BitStats bits;
  double outlier_branch_frac = 0, classify_ms = 0;
  double bake_ms = 0, load_ms = 0, artifact_kib = 0;
  double compile_ms = 0;
  double run_seq_ms = 0, run_pool_ms = 0, mixed_over_int8_x = 0;
  int pool_workers = 1;
  double pipelined_arena_kb = 0, scratch_kb = 0, high_water_kb = 0;
  double work_mmacs = 0, recompute_x = 0;
  double construct_ms = 0, lane_imbalance = 0;
  double diff_ms = 0, branch_skip_frac = 0, band_skip_frac = 0,
         unchanged_frame_frac = 0, changed_pixel_frac = 0;
  double untraced_p50_ms = 0;

  // `streaming`: the traced lane calls were run_streaming frames.
  void fill(Report& rep, const PhaseResult& traced, bool streaming) const {
    const PhaseTimings t = account(traced.times);
    rep.add("quant.calibrate_ms", calibrate_ms, "ms");
    rep.add("core.plan_ms", plan_ms, "ms");
    rep.add("core.search_ms", search_ms, "ms");
    rep.add("core.materialize_ms", materialize_ms, "ms");
    rep.add("core.mean_act_bits", bits.mean_act_bits, "bits");
    rep.add("core.subbyte_step_frac", bits.subbyte_step_frac, "frac");
    rep.add("core.outlier_branch_frac", outlier_branch_frac, "frac");
    rep.add("core.classify_ms", classify_ms, "ms");
    rep.add("artifact.bake_ms", bake_ms, "ms");
    rep.add("artifact.load_ms", load_ms, "ms");
    rep.add("artifact.kib", artifact_kib, "KiB");
    rep.add("patch.compile_ms", compile_ms, "ms");
    rep.add("patch.run_seq_ms", run_seq_ms, "ms");
    rep.add("patch.service_p50_ms", t.service_ms.p50, "ms");
    rep.add("patch.service_p99_ms", t.service_ms.p99, "ms");
    rep.add("patch.mixed_over_int8_x", mixed_over_int8_x, "x");
    rep.add("patch.pipelined_arena_kb", pipelined_arena_kb, "KB");
    rep.add("patch.scratch_kb", scratch_kb, "KB");
    rep.add("patch.high_water_kb", high_water_kb, "KB");
    rep.add("ops.work_mmacs", work_mmacs, "MMAC");
    rep.add("ops.recompute_x", recompute_x, "x");
    rep.add("ops.gops_per_s",
            run_seq_ms > 0 ? 2.0 * work_mmacs / run_seq_ms : 0.0, "GOP/s");
    rep.add("ops.subbyte_work_frac", bits.subbyte_work_frac, "frac");
    const double speedup = run_pool_ms > 0 ? run_seq_ms / run_pool_ms : 0.0;
    rep.add("runtime.parallel_speedup_x", speedup, "x");
    rep.add("runtime.parallel_efficiency", speedup / pool_workers, "frac");
    rep.add("serving.queue_wait_p50_ms", t.wait_ms.p50, "ms");
    rep.add("serving.queue_wait_p99_ms", t.wait_ms.p99, "ms");
    rep.add("serving.handoff_p50_ms", t.handoff_ms.p50, "ms");
    rep.add("serving.shed_frac",
            traced.submitted > 0
                ? static_cast<double>(traced.rejected + traced.expired) /
                      static_cast<double>(traced.submitted)
                : 0.0,
            "frac");
    rep.add("serving.lane_imbalance", lane_imbalance, "x");
    rep.add("serving.construct_ms", construct_ms, "ms");
    rep.add("streaming.diff_ms", diff_ms, "ms");
    rep.add("streaming.run_p50_ms", streaming ? t.service_ms.p50 : 0.0, "ms");
    rep.add("streaming.branch_skip_frac", branch_skip_frac, "frac");
    rep.add("streaming.band_skip_frac", band_skip_frac, "frac");
    rep.add("streaming.unchanged_frame_frac", unchanged_frame_frac, "frac");
    rep.add("streaming.changed_pixel_frac", changed_pixel_frac, "frac");
    rep.add("loadgen.late_p99_ms", t.late_ms.p99, "ms");
    rep.add("trace.overhead_frac",
            untraced_p50_ms > 0 ? t.latency_ms.p50 / untraced_p50_ms - 1.0
                                : 0.0,
            "frac");
  }
};

// Per-module figures shared by both workloads, measured from outside on
// the client thread after the timed phases: the deployment pipeline's
// stage times, the loaded model alone (sequential and over a `workers`
// pool), the int8 variant of the same plan, and the in-process compile the
// artifact spares.
Layers deployment_layers(const nn::Graph& g, const MixedDeployment& d,
                         const PlanTimes& pt, const SetupTimes& st,
                         const std::string& artifact,
                         const patch::CompiledPatchQuantModel& m,
                         const std::vector<nn::Tensor>& inputs, int workers) {
  Layers l;
  l.calibrate_ms = median(pt.calibrate_ms);
  l.plan_ms = median(pt.plan_ms);
  l.search_ms = median(pt.search_ms);
  l.materialize_ms = median(pt.materialize_ms);
  l.bake_ms = median(pt.bake_ms);
  l.load_ms = median(st.build_ms);
  l.artifact_kib =
      static_cast<double>(std::filesystem::file_size(artifact)) / 1024.0;
  l.construct_ms = median(st.construct_ms);

  l.run_seq_ms = run_p50(m, inputs, nullptr);
  {
    nn::WorkerPool pool(workers);
    l.run_pool_ms = run_p50(m, inputs, &pool);
    l.pool_workers = workers;
  }
  l.bits = bit_stats(g, m);
  l.pipelined_arena_kb =
      static_cast<double>(m.pipelined_plan(workers).total_bytes()) / 1024.0;
  l.scratch_kb = static_cast<double>(m.scratch_bytes()) / 1024.0;
  l.high_water_kb = static_cast<double>(m.measured_high_water()) / 1024.0;
  const patch::PatchPlan& plan = m.plan();
  const double work = static_cast<double>(
      plan.stage_macs_patched + g.total_macs() - plan.stage_macs_layer_based);
  l.work_mmacs = work * 1e-6;
  l.recompute_x = work / static_cast<double>(g.total_macs());
  std::tie(l.classify_ms, l.outlier_branch_frac) = classify(inputs, plan);

  const Ns a = now_ns();
  const patch::CompiledPatchQuantModel compiled(g, d.plan.patch_plan, d.cfg,
                                                d.branch_cfgs);
  l.compile_ms = ms_between(a, now_ns());
  // Uniform int8 on the same patch plan: 8-bit tail as well as branches.
  core::QuantMcuPlan plan8 = d.plan;
  std::fill(plan8.tail_bits.begin(), plan8.tail_bits.end(), 8);
  const patch::CompiledPatchQuantModel int8(
      g, d.plan.patch_plan,
      core::make_deployment_quant_config(g, plan8, d.ranges));
  l.mixed_over_int8_x = l.run_seq_ms / run_p50(int8, inputs, nullptr);
  return l;
}

double imbalance(const std::vector<std::uint64_t>& before,
                 const std::vector<std::uint64_t>& after) {
  double mx = 0.0, sum = 0.0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    const double d = static_cast<double>(after[i] - before[i]);
    mx = std::max(mx, d);
    sum += d;
  }
  return sum > 0 ? mx / (sum / static_cast<double>(after.size())) : 0.0;
}

void add_timing_lines(const char* what, const PhaseTimings& t) {
  std::printf(
      "samples %-10s n=%zu  p50 %.3f ms  p90 %.3f ms  p99 %.3f ms  (highest "
      "supported percentile: p%g%s)\n",
      what, t.latency_ms.n, t.latency_ms.p50, t.latency_ms.p90,
      t.latency_ms.p99, t.latency_ms.supported,
      t.latency_ms.p99_supported() ? "" : " — p99 NOT supported");
}

void print_self_times(const Tracer& tr) {
  std::printf("self time per span (traced run):\n");
  std::printf("  %-22s %8s %12s %12s %12s\n", "span", "count", "total ms",
              "self ms", "self/count");
  for (const SelfTime& s : tr.self_times()) {
    std::printf("  %-22s %8zu %12.3f %12.3f %12.4f\n", s.name.c_str(), s.count,
                s.total_ms, s.self_ms,
                s.count ? s.self_ms / static_cast<double>(s.count) : 0.0);
  }
}

// A timed phase run under a SpeedMonitor on the lane CPUs (CoreBudget pins
// lane i to CPU i). Every item served gets the speed scale of its lane CPU
// around its model call; every closed-loop burst gets its completion rate
// (burst_rate, stolen time excluded) at the speed the lanes ran at in the
// idle gaps around it.
struct Monitored {
  PhaseResult r;
  std::vector<double> burst_rps;
};

Monitored monitored(int lanes, const std::function<PhaseResult()>& phase) {
  std::vector<int> cpus;
  for (int c = 0; c < lanes; ++c) cpus.push_back(c);
  SpeedMonitor mon(cpus);
  Monitored m{phase(), {}};
  mon.stop();
  for (RequestTimes& t : m.r.times) {
    if (t.cpu < 0 || !t.served()) continue;
    t.scale = speed_scale(
        mon.mean_near(t.cpu, t.start - kSpeedMargin, t.end + kSpeedMargin));
  }
  for (const auto& [begin, end] : m.r.bursts) {
    // The idle gap before the burst and the one after it (which follows
    // the drain).
    const double anchor =
        0.5 * (mon.mean_near_all(begin - kBurstGap, begin) +
               mon.mean_near_all(end, end + 2 * kBurstGap));
    m.burst_rps.push_back(burst_rate(m.r.times, begin, end, lanes) /
                          speed_scale(anchor));
  }
  return m;
}

// Closed-loop completions per second at the reference CPU speed: the
// median over the phase's bursts.
double capacity(const Monitored& m) { return median(m.burst_rps); }

void add_end_to_end(RunResult& out, double setup_s, double plan_s,
                    const PhaseTimings& lat, double capacity_rps,
                    double arena_kb, double sqnr_db) {
  Report& r = out.end_to_end;
  r.add("setup_s", setup_s, "s");
  r.add("plan_s", plan_s, "s");
  r.add("latency_p50_ms", lat.latency_ms.p50, "ms");
  r.add("capacity_rps", capacity_rps, "req/s");
  r.add("arena_kb", arena_kb, "KB");
  r.add("rss_peak_mb", rss_peak_mb(), "MB");
  r.add("output_sqnr_db", sqnr_db, "dB");
  add_timing_lines("latency", lat);
  // Printed, not bounded: on a host whose virtual CPUs are preempted by
  // other tenants the tail swings by 2-4x between identical runs.
  out.unbounded.add("latency_p99_ms", lat.latency_ms.p99, "ms");
  // What the host took: the wall-clock latency, stolen time included, and
  // the time stolen from the lane while it served an item.
  out.unbounded.add("wall_latency_p50_ms", lat.wall_latency_ms.p50, "ms");
  out.unbounded.add("stolen_p90_ms", lat.stolen_ms.p90, "ms");
}

struct Env {
  Args args;
  int lanes = 1;
  std::string artifact;        // the deployment every lane maps
  std::string spare_artifact;  // later planning rounds bake here
  Tracer tracer;
  Probe probe;

  explicit Env(const Args& a) : args(a), tracer(a.trace) {
    lanes = std::max(1, nn::runtime::usable_cpus() - 1);
    const std::string stem =
        (std::filesystem::path(a.out_dir) /
         (a.workload + "." + std::to_string(::getpid())))
            .string();
    artifact = stem + ".qmcp";
    spare_artifact = stem + ".round.qmcp";
  }
  ~Env() {
    std::error_code ec;
    std::filesystem::remove(artifact, ec);
    std::filesystem::remove(spare_artifact, ec);
  }
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  // One lane's model: the artifact, mapped and adopted zero-copy.
  [[nodiscard]] std::unique_ptr<ServedModel> load_lane_model() {
    patch::LoadedPatchModel l = patch::load_compiled_patch(artifact);
    return std::make_unique<ServedModel>(std::move(l.model), l.artifact,
                                         probe);
  }
  [[nodiscard]] Ns phase(double share) const {
    return seconds_ns(args.seconds * share);
  }
};

// --- workloads -----------------------------------------------------------------

// serve_mixed: the Table I headline deployment (Arduino / ImageNet scale,
// MobileNetV2 w0.35 @ 144, MinPeak plan, searched mixed configs) baked
// once and loaded by every lane, 1 worker per lane. Open-loop Poisson at
// kServeMixedRate, then a closed loop with 2 x lanes outstanding.
RunResult serve_mixed(Env& env) {
  RunResult out;
  const nn::Graph g = models::make_mobilenet_v2(model_config(0.35f, 144, 1000));
  const auto calib = dataset(data::DatasetKind::ImageNetLike, 144,
                             kCalibrationSeed).batch(0, 2);
  PlanTimes pt;
  const MixedDeployment d = plan_mixed(g, mcu::arduino_nano_33_ble_sense(),
                                       calib, env.artifact, env.tracer, pt);

  Pool pool;
  pool.inputs = dataset(data::DatasetKind::ImageNetLike, 144,
                        input_seed(env.args.seed)).batch(0, kPoolImages);
  Oracle oracle = compute_oracle(g, pool.inputs, [&] {
    return artifact_runner(env.artifact, nn::ops::KernelTier::Reference);
  });
  pool.expected = std::move(oracle.expected);

  SetupTimes st;
  const auto build = [&] { return env.load_lane_model(); };
  const auto warm = [&](Frontend& f) { warm_lanes(f, pool.inputs[0]); };
  const ServingConfig cfg = serving_config(env.lanes, env.lanes);
  const auto fe = set_up(cfg, build, warm, env.tracer, st);
  // Later rounds bake to a second file: the lanes map env.artifact.
  const auto round = [&] {
    (void)plan_mixed(g, mcu::arduino_nano_33_ble_sense(), calib,
                     env.spare_artifact, env.tracer, pt);
    (void)set_up(cfg, build, warm, env.tracer, st);
  };
  pin_client_threads(env.lanes);
  const patch::LoadedPatchModel direct =
      patch::load_compiled_patch(env.artifact);
  const double arena_kb =
      static_cast<double>(direct.model->arena_bytes()) / 1024.0;

  const std::uint64_t seed = env.args.seed;
  if (!env.args.trace) {
    const Monitored open = monitored(env.lanes, [&] {
      return open_loop_requests(*fe, env.probe, pool, kServeMixedRate,
                                env.phase(kOpenShare), seed, false);
    });
    round();
    const Monitored closed = monitored(env.lanes, [&] {
      return closed_loop_requests(*fe, env.probe, pool, 2 * env.lanes,
                                  env.phase(1.0 - kOpenShare), seed, false);
    });
    round();
    out.count(open.r);
    out.count(closed.r);
    add_end_to_end(out, median(st.scaled_s), median(pt.scaled_s),
                   account(open.r.times), capacity(closed), arena_kb,
                   oracle.sqnr_db);
    return out;
  }

  const PhaseResult plain = monitored(env.lanes, [&] {
    return open_loop_requests(*fe, env.probe, pool, kServeMixedRate,
                              env.phase(0.5), seed, false);
  }).r;
  round();
  const auto before = fe->per_session_requests();
  const PhaseResult traced = monitored(env.lanes, [&] {
    return open_loop_requests(*fe, env.probe, pool, kServeMixedRate,
                              env.phase(0.5), seed + 1, true);
  }).r;
  round();
  out.count(plain);
  out.count(traced);
  add_request_spans(env.tracer, traced, "patch.run");

  const double lane_imbalance = imbalance(before, fe->per_session_requests());
  pin_client_threads(0);  // the pooled run below may use every core
  Layers l = deployment_layers(g, d, pt, st, env.artifact, *direct.model,
                               pool.inputs, env.lanes);
  l.lane_imbalance = lane_imbalance;
  l.untraced_p50_ms = account(plain.times).latency_ms.p50;
  l.fill(out.layers, traced, false);
  add_timing_lines("latency", account(traced.times));
  return out;
}

// ServingFrontend frees its lanes' arena slab before its open streams, whose
// retained arenas still lease from it, so every stream is closed before the
// frontend is destroyed.
struct StreamCloser {
  Frontend& fe;
  const std::vector<ServedStream>& streams;
  ~StreamCloser() {
    for (const ServedStream& s : streams) fe.close_stream(s.id);
  }
};

// The frames the model computed. A byte-identical hold (23 of every 48
// frames) is answered from the stream's cached output without a model call
// in microseconds; with them in, the p50 would sit on the low tail of the
// computed frames.
std::vector<RequestTimes> computed(const std::vector<RequestTimes>& times) {
  std::vector<RequestTimes> out;
  std::copy_if(times.begin(), times.end(), std::back_inserter(out),
               [](const RequestTimes& t) { return t.served(); });
  return out;
}

// stream_camera: the Arduino / VOC column (MobileNetV2 w0.5 @ 128, MinPeak
// mixed deployment from an artifact), one 30 fps camera stream per lane.
RunResult stream_camera(Env& env) {
  RunResult out;
  const nn::Graph g = models::make_mobilenet_v2(model_config(0.5f, 128, 20));
  const auto calib = dataset(data::DatasetKind::PascalVocLike, 128,
                             kCalibrationSeed).batch(0, 2);
  PlanTimes pt;
  const MixedDeployment d = plan_mixed(g, mcu::arduino_nano_33_ble_sense(),
                                       calib, env.artifact, env.tracer, pt);

  std::vector<ServedStream> streams(static_cast<std::size_t>(env.lanes));
  std::vector<nn::Tensor> frames;  // every distinct frame, stream by stream
  for (std::size_t s = 0; s < streams.size(); ++s) {
    streams[s].camera =
        make_camera_stream(env.args.seed, static_cast<int>(s));
    frames.insert(frames.end(), streams[s].camera.distinct.begin(),
                  streams[s].camera.distinct.end());
  }
  // The oracle is the sequential full recompute, which the streaming suite
  // proves bit-identical to run_streaming in exact mode.
  Oracle oracle = compute_oracle(g, frames, [&] {
    return artifact_runner(env.artifact, nn::ops::KernelTier::Simd);
  });
  for (std::size_t s = 0, next = 0; s < streams.size(); ++s) {
    for (std::size_t i = 0; i < streams[s].camera.distinct.size(); ++i) {
      streams[s].expected.push_back(std::move(oracle.expected[next++]));
    }
  }

  SetupTimes st;
  const auto build = [&] { return env.load_lane_model(); };
  const auto warm = [&](Frontend& f) {
    warm_lanes(f, streams[0].camera.at(0));
  };
  const ServingConfig cfg = serving_config(env.lanes, env.lanes);
  const auto fe = set_up(cfg, build, warm, env.tracer, st);
  // Later rounds bake to a second file: the lanes map env.artifact.
  const auto round = [&] {
    (void)plan_mixed(g, mcu::arduino_nano_33_ble_sense(), calib,
                     env.spare_artifact, env.tracer, pt);
    (void)set_up(cfg, build, warm, env.tracer, st);
  };
  // One stream per lane (open_stream pins round-robin), primed with its
  // first frame before the clock starts.
  std::vector<std::future<nn::QTensor>> primed;
  for (ServedStream& s : streams) {
    s.id = fe->open_stream();
    primed.push_back(fe->submit_stream(s.id, s.camera.at(s.next_frame++)));
  }
  for (auto& p : primed) (void)p.get();
  const StreamCloser closer{*fe, streams};
  pin_client_threads(env.lanes);
  const patch::LoadedPatchModel direct =
      patch::load_compiled_patch(env.artifact);
  const double arena_kb =
      static_cast<double>(direct.model->arena_bytes()) / 1024.0;

  if (!env.args.trace) {
    const Monitored open = monitored(env.lanes, [&] {
      return open_loop_streams(*fe, env.probe, streams, kCameraFps,
                               env.phase(kOpenShare), false);
    });
    round();
    // Hold frames come back in microseconds: with a deep window per stream
    // a lane never waits for the one client thread to refill it.
    const Monitored closed = monitored(env.lanes, [&] {
      return closed_loop_streams(*fe, env.probe, streams, 8, env.phase(1.0 - kOpenShare),
                                 false);
    });
    round();
    out.count(open.r);
    out.count(closed.r);
    add_end_to_end(out, median(st.scaled_s), median(pt.scaled_s),
                   account(computed(open.r.times)), capacity(closed), arena_kb,
                   oracle.sqnr_db);
    return out;
  }

  const PhaseResult plain = monitored(env.lanes, [&] {
    return open_loop_streams(*fe, env.probe, streams, kCameraFps,
                             env.phase(0.5), false);
  }).r;
  round();
  const PhaseResult traced = monitored(env.lanes, [&] {
    return open_loop_streams(*fe, env.probe, streams, kCameraFps,
                             env.phase(0.5), true);
  }).r;
  round();
  out.count(plain);
  out.count(traced);
  add_request_spans(env.tracer, traced, "streaming.run");

  nn::streaming::StreamingStats total;
  for (const ServedStream& s : streams) {
    const nn::streaming::StreamingStats ss = fe->stream_stats(s.id).get();
    total.frames += ss.frames;
    total.unchanged_frames += ss.unchanged_frames;
    total.branches_recomputed += ss.branches_recomputed;
    total.branches_skipped += ss.branches_skipped;
    total.bands_run += ss.bands_run;
    total.bands_skipped += ss.bands_skipped;
  }
  pin_client_threads(0);  // the pooled run below may use every core
  Layers l = deployment_layers(g, d, pt, st, env.artifact, *direct.model,
                               frames, env.lanes);
  l.lane_imbalance = 1.0;  // one stream per lane by construction
  l.untraced_p50_ms = account(plain.times).latency_ms.p50;
  l.branch_skip_frac = total.branch_skip_ratio();
  l.band_skip_frac = total.band_skip_ratio();
  l.unchanged_frame_frac = total.frames > 0
                               ? static_cast<double>(total.unchanged_frames) /
                                     static_cast<double>(total.frames)
                               : 0.0;
  double changed = 0.0;
  std::vector<double> diff_ms;
  for (const ServedStream& s : streams) {
    changed += changed_pixel_fraction(s.camera);
    for (int i = 1; i < s.camera.period(); ++i) {
      const nn::Tensor& prev = s.camera.at(i - 1);
      const nn::Tensor& cur = s.camera.at(i);
      const Ns a = now_ns();
      if (!patch::diff_frames(prev, cur).identical()) {
        (void)patch::dirty_branches(prev, cur, direct.model->plan());
      }
      diff_ms.push_back(ms_between(a, now_ns()));
    }
  }
  l.changed_pixel_frac = changed / static_cast<double>(streams.size());
  l.diff_ms = median(std::move(diff_ms));
  l.fill(out.layers, traced, true);
  add_timing_lines("latency", account(traced.times));
  return out;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::filesystem::create_directories(args.out_dir);
  Env env(args);
  const auto host = host_fingerprint();
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d lanes=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, env.lanes);
  std::printf("host");
  for (const auto& [k, v] : host) std::printf(" %s=%s", k.c_str(), v.c_str());
  std::printf("\n");

  RunResult out;
  if (args.workload == "serve_mixed") {
    out = serve_mixed(env);
  } else if (args.workload == "stream_camera") {
    out = stream_camera(env);
  } else {
    throw std::invalid_argument("unknown workload " + args.workload);
  }

  const double error_frac =
      out.attempted > 0 ? static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted)
                        : 1.0;
  std::printf("attempted %lld failed %lld error_frac %.6g (balanced: %s)\n",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed), error_frac,
              out.correct ? "yes" : "NO");
  const bool correct = out.correct && out.failed == 0 && out.attempted > 0;
  const Report& metrics = args.trace ? out.layers : out.end_to_end;
  metrics.print_lines();
  if (!args.trace) {
    out.unbounded.add("error_frac", error_frac, "frac");
    out.unbounded.print_lines();
  } else {
    print_self_times(env.tracer);
    auto meta = host;
    meta["workload"] = args.workload;
    meta["seed"] = std::to_string(args.seed);
    const std::filesystem::path dir =
        std::filesystem::path(args.out_dir) / "traces";
    std::filesystem::create_directories(dir);
    const std::string path = (dir / (args.workload + ".json")).string();
    if (!env.tracer.write_chrome_json(path, meta)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("trace %s (%zu spans)\n", path.c_str(),
                env.tracer.spans().size());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed), metrics.json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
