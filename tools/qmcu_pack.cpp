// qmcu_pack — bake, verify and inspect QMCP plan artifacts from the
// command line.
//
// Build mode compiles a model (zoo registry entry or a saved .qmcu graph)
// into a plan artifact; --verify reloads the written file through the
// mmap path and proves its inference bit-identical to a model compiled
// in-memory from the same graph. --check does the verification half
// against an EXISTING artifact — that is the cross-generation /
// cross-architecture CI step: bake on one host, re-derive the reference
// on another (the synthetic zoo is bit-identical across toolchains) and
// require equality. Quantized kinds must also equal a Reference-tier load
// of the same file. --inspect prints the header and section table; for a
// patch artifact it also loads the model and prints the arena it binds,
// with each branch step's slot bytes and stored bit widths.
//
// --kind mixed bakes the paper's deployment: calibrate, build_quantmcu_plan
// (VDPC + VDQS over a MinPeak patch plan for the Arduino Nano 33), then the
// searched per-branch configs — the mixed-precision patch artifact path.
//
//   qmcu_pack --model mobilenetv2 --kind quant --out mbv2_int8.qmcp --verify
//   qmcu_pack --model mobilenetv2 --kind quant --check mbv2_int8.qmcp
//             (no write, just compare; --bits defaults to 8)
//   qmcu_pack --model mobilenetv2 --kind mixed --out mbv2_mixed.qmcp --verify
//   qmcu_pack --inspect mbv2_int8.qmcp
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/quantmcu.h"
#include "mcu/device.h"
#include "models/zoo.h"
#include "nn/compiled_model.h"
#include "nn/plan_artifact.h"
#include "nn/rng.h"
#include "nn/serialize.h"
#include "patch/compiled_patch_model.h"
#include "patch/mcunetv2.h"
#include "patch/patch_artifact.h"
#include "quant/calibration.h"

namespace {

using namespace qmcu;

struct Options {
  std::string model;          // zoo registry name
  std::string graph_path;     // or a saved .qmcu graph
  std::string kind = "quant"; // float | quant | patch | mixed
  int bits = 8;
  int grid = 2;
  int calib = 2;
  int resolution = 48;
  float width = 0.25f;
  int classes = 10;
  std::string out;
  std::string check;          // verify an existing artifact, write nothing
  std::string inspect;
  bool verify = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --model NAME | --graph FILE.qmcu\n"
      "          [--kind float|quant|patch|mixed] [--bits N] [--grid G]\n"
      "          [--calib N] [--resolution N] [--width W] [--classes N]\n"
      "          --out FILE.qmcp [--verify]\n"
      "       %s --model NAME ... --check FILE.qmcp\n"
      "       %s --inspect FILE.qmcp\n",
      argv0, argv0, argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (a == "--model") {
      o.model = value();
    } else if (a == "--graph") {
      o.graph_path = value();
    } else if (a == "--kind") {
      o.kind = value();
    } else if (a == "--bits") {
      o.bits = std::atoi(value().c_str());
    } else if (a == "--grid") {
      o.grid = std::atoi(value().c_str());
    } else if (a == "--calib") {
      o.calib = std::atoi(value().c_str());
    } else if (a == "--resolution") {
      o.resolution = std::atoi(value().c_str());
    } else if (a == "--width") {
      o.width = static_cast<float>(std::atof(value().c_str()));
    } else if (a == "--classes") {
      o.classes = std::atoi(value().c_str());
    } else if (a == "--out") {
      o.out = value();
    } else if (a == "--check") {
      o.check = value();
    } else if (a == "--inspect") {
      o.inspect = value();
    } else if (a == "--verify") {
      o.verify = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      usage(argv[0]);
    }
  }
  if (!o.inspect.empty()) return o;
  if (o.model.empty() == o.graph_path.empty()) usage(argv[0]);
  if (o.out.empty() && o.check.empty()) usage(argv[0]);
  return o;
}

nn::Tensor random_input(nn::TensorShape s, std::uint64_t seed) {
  nn::Tensor t(s);
  nn::Rng rng(seed);
  for (float& v : t.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

bool q_equal(const nn::QTensor& a, const nn::QTensor& b) {
  if (a.shape() != b.shape() || !(a.params() == b.params())) return false;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    if (a.data()[i] != b.data()[i]) return false;
  }
  return true;
}

bool f_equal(const nn::Tensor& a, const nn::Tensor& b) {
  if (a.shape() != b.shape()) return false;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    if (a.data()[i] != b.data()[i]) return false;
  }
  return true;
}

int inspect(const std::string& path) {
  const auto art = nn::PlanArtifact::map(path);
  const char* kind = "?";
  switch (art->kind()) {
    case nn::ArtifactModelKind::Float: kind = "float"; break;
    case nn::ArtifactModelKind::Quant: kind = "quant"; break;
    case nn::ArtifactModelKind::PatchQuant: kind = "patch-quant"; break;
  }
  const nn::KernelFingerprint& fp = art->fingerprint();
  std::printf("%s: %zu bytes, kind %s\n", path.c_str(), art->mapped_bytes(),
              kind);
  std::printf("  baked kernel generation: %u (a_bias %d)%s\n",
              fp.gemm_generation, fp.gemm_a_bias,
              art->fingerprint_matches()
                  ? ""
                  : "  [differs from this host: offset rows re-derived]");
  if (art->kind() == nn::ArtifactModelKind::PatchQuant) {
    // The PLAN section holds a layer-based plan the patch loader never
    // binds: a patch model re-plans its arena at load, so report that one.
    const patch::LoadedPatchModel loaded = patch::load_compiled_patch(path);
    const patch::CompiledPatchQuantModel& m = *loaded.model;
    const patch::PatchPlan& plan = m.plan();
    std::printf("  graph: %d layers; patch model: %zu branches x %zu steps, "
                "cut at layer %d, arena %lld bytes (%zu slots, as loaded)\n",
                art->graph().size(), plan.branches.size(),
                plan.branches.front().steps.size(), plan.spec.split_layer,
                static_cast<long long>(m.arena_bytes()),
                m.arena_plan().slots.size());
    // Branch-step slots are the first requests of the arena plan; a
    // sub-byte map is stored packed.
    for (std::size_t s = 0; s < plan.branches.front().steps.size(); ++s) {
      int lo = 8;
      int hi = 0;
      for (std::size_t b = 0; b < plan.branches.size(); ++b) {
        const int bits = m.stored_params(static_cast<int>(b),
                                         static_cast<int>(s)).bits;
        lo = std::min(lo, bits);
        hi = std::max(hi, bits);
      }
      const int id = plan.branches.front().steps[s].layer_id;
      std::printf("    step %2zu  layer %3d %-16s slot %7lld bytes  bits %d",
                  s, id, std::string(nn::to_string(art->graph().layer(id).kind))
                             .c_str(),
                  static_cast<long long>(m.arena_plan().slots[s].size), lo);
      if (hi != lo) std::printf("..%d", hi);
      std::printf("\n");
    }
  } else {
    std::printf("  graph: %d layers, arena peak %lld bytes (%zu slots)\n",
                art->graph().size(),
                static_cast<long long>(art->arena_plan().peak_bytes),
                art->arena_plan().slots.size());
  }
  for (const std::uint32_t tag :
       {nn::artifact_tag('G', 'R', 'P', 'H'), nn::artifact_tag('Q', 'C', 'F', 'G'),
        nn::artifact_tag('L', 'I', 'D', 'X'), nn::artifact_tag('P', 'L', 'A', 'N'),
        nn::artifact_tag('F', 'I', 'D', 'X'), nn::artifact_tag('P', 'T', 'C', 'H'),
        nn::artifact_tag('B', 'B', 'I', 'A'), nn::artifact_tag('P', 'I', 'P', 'E'),
        nn::artifact_tag('B', 'L', 'O', 'B')}) {
    const auto bytes = art->section(tag);
    if (bytes.empty()) continue;
    const char name[5] = {static_cast<char>(tag & 0xff),
                          static_cast<char>((tag >> 8) & 0xff),
                          static_cast<char>((tag >> 16) & 0xff),
                          static_cast<char>((tag >> 24) & 0xff), '\0'};
    std::printf("  section %s: %zu bytes\n", name, bytes.size());
  }
  return 0;
}

std::vector<nn::Tensor> calibration_inputs(const nn::Graph& g,
                                           const Options& o) {
  std::vector<nn::Tensor> calib;
  for (int i = 0; i < o.calib; ++i) {
    calib.push_back(random_input(g.shape(0), 100 + static_cast<unsigned>(i)));
  }
  return calib;
}

nn::ActivationQuantConfig uniform_config(const nn::Graph& g,
                                         const Options& o) {
  const auto ranges = quant::calibrate_ranges(g, calibration_inputs(g, o));
  return quant::make_quant_config(g, ranges, nn::uniform_bits(g, o.bits));
}

// The paper's mixed deployment: searched plan plus materialised configs.
struct MixedDeployment {
  core::QuantMcuPlan plan;
  nn::ActivationQuantConfig cfg;
  std::vector<patch::BranchQuantConfig> branch_cfgs;
};

MixedDeployment plan_mixed(const nn::Graph& g, const Options& o) {
  const std::vector<nn::Tensor> calib = calibration_inputs(g, o);
  core::QuantMcuConfig qcfg;
  qcfg.planner = core::PatchPlannerKind::MinPeak;
  MixedDeployment d;
  d.plan = core::build_quantmcu_plan(g, mcu::arduino_nano_33_ble_sense(),
                                     calib, qcfg);
  const auto ranges = quant::calibrate_ranges(g, calib);
  d.cfg = core::make_deployment_quant_config(g, d.plan, ranges);
  d.branch_cfgs = core::make_branch_quant_configs(g, d.plan, ranges);
  return d;
}

int fail(const char* what) {
  std::fprintf(stderr, "FAIL: artifact inference differs from %s\n", what);
  return 1;
}

// Verifies `path` against a reference compiled in-memory from `g`:
// bit-identical outputs on deterministic inputs, for the artifact's kind.
// Quantized kinds must also match a Reference-tier load of the same file,
// which recomputes every offset row and runs no microkernel.
int verify_artifact(const std::string& path, const nn::Graph& g,
                    const Options& o) {
  const nn::Tensor in = random_input(g.shape(0), 7);
  const auto ref_tier = nn::ops::KernelTier::Reference;
  if (o.kind == "float") {
    const nn::LoadedModel loaded = nn::load_compiled(path);
    const nn::CompiledModel ref(g);
    if (!f_equal(loaded.float_model->run(in), ref.run(in))) {
      return fail("in-memory compilation");
    }
  } else if (o.kind == "quant") {
    const nn::LoadedModel loaded = nn::load_compiled(path);
    const nn::QTensor got = loaded.model->run(in);
    if (!q_equal(got, nn::CompiledQuantModel(g, uniform_config(g, o)).run(in))) {
      return fail("in-memory compilation");
    }
    if (!q_equal(got, nn::load_compiled(path, ref_tier).model->run(in))) {
      return fail("a Reference-tier load");
    }
  } else {
    const patch::LoadedPatchModel loaded = patch::load_compiled_patch(path);
    const nn::QTensor got = loaded.model->run(in);
    if (o.kind == "mixed") {
      const MixedDeployment d = plan_mixed(g, o);
      const patch::CompiledPatchQuantModel ref(g, d.plan.patch_plan, d.cfg,
                                               d.branch_cfgs);
      if (!q_equal(got, ref.run(in))) return fail("in-memory compilation");
    } else {
      const patch::PatchSpec spec = patch::plan_mcunetv2(g, {o.grid, o.grid});
      const patch::CompiledPatchQuantModel ref(
          g, patch::build_patch_plan(g, spec), uniform_config(g, o));
      if (!q_equal(got, ref.run(in))) return fail("in-memory compilation");
    }
    if (!q_equal(got,
                 patch::load_compiled_patch(path, ref_tier).model->run(in))) {
      return fail("a Reference-tier load");
    }
  }
  const auto art = nn::PlanArtifact::map(path);
  std::printf("OK: %s bit-identical to in-memory compilation (%s kernel "
              "generation)\n",
              path.c_str(),
              art->fingerprint_matches() ? "matching" : "re-derived");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    if (!o.inspect.empty()) return inspect(o.inspect);

    models::ModelConfig mc;
    mc.width_multiplier = o.width;
    mc.resolution = o.resolution;
    mc.num_classes = o.classes;
    const nn::Graph g = o.model.empty() ? nn::load_graph(o.graph_path)
                                        : models::make_model(o.model, mc);

    if (!o.check.empty()) return verify_artifact(o.check, g, o);

    if (o.kind == "float") {
      nn::compile_to_artifact(g, o.out);
    } else if (o.kind == "quant") {
      nn::compile_to_artifact(g, uniform_config(g, o), o.out);
    } else if (o.kind == "patch") {
      const patch::PatchSpec spec = patch::plan_mcunetv2(g, {o.grid, o.grid});
      patch::compile_to_artifact(g, spec, uniform_config(g, o), {}, o.out);
    } else if (o.kind == "mixed") {
      const MixedDeployment d = plan_mixed(g, o);
      patch::compile_to_artifact(g, d.plan.patch_plan.spec, d.cfg,
                                 d.branch_cfgs, o.out);
    } else {
      std::fprintf(stderr, "unknown --kind: %s\n", o.kind.c_str());
      return 2;
    }
    std::printf("wrote %s\n", o.out.c_str());
    if (o.verify) return verify_artifact(o.out, g, o);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qmcu_pack: %s\n", e.what());
    return 1;
  }
}
