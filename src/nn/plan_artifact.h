// plan_artifact.h — ahead-of-time compiled plan artifacts ("QMCP").
//
// A CompiledQuantModel performs real work at construction: weight
// quantization, bias rescaling, k-major panel packing, zero-point offset
// rows, and the arena placement pass. compile_to_artifact runs all of it
// once, offline, and serializes the results into a single binary file;
// load_compiled mmaps that file read-only (MAP_SHARED) and constructs a
// model whose weight, panel and offset-row storage is *span views into the
// mapping* — no deserialization copy, and every process that maps the same
// artifact shares one physical copy of the weights, so a serving fleet's
// RSS grows by ~one model, not N.
//
// Layout (all integers little-endian; sections 64-byte aligned):
//
//   header      "QMCP" | version (2) | endian sentinel | model kind |
//               kernel fingerprint (generation, activation bias) |
//               reserved u32 (byte 24, must be 0) | section count |
//               file size. Version-1 files (whose layer records carried
//               lookup-table blobs) are rejected.
//   section     { tag, offset, size, crc32 } per section
//   table
//   sections    GRPH  framed topology-only graph stream (serialize.h v2)
//               QCFG  framed ActivationQuantConfig stream (quant kinds)
//               LIDX  per-MAC-layer index: geometry + blob offsets; the
//                     loader checks every count against the layer before
//                     it builds a view
//               PLAN  the construction-time ArenaPlan
//               FIDX  float parameter index (Float kind)
//               BLOB  all bulk data: quantized weights, int32 biases,
//                     k-major panels, column sums, offset rows, float
//                     parameters — each blob 64-aligned
//               (+ caller sections, e.g. the patch artifact's PTCH/BBIA)
//
// Every section carries a CRC32 verified at map time before any byte is
// interpreted, so truncated or bit-flipped artifacts fail loudly.
//
// The header records the *kernel generation* the artifact was baked under
// (scalar / pair-madd / dot-product GEMM). Panels and column sums are
// generation-independent (pure weight recodes); only the per-column offset
// rows depend on the activation zero-point bias of the dot-product
// generations. On a fingerprint mismatch the loader re-derives just those
// rows into private memory — an artifact baked on an AVX-VNNI host loads
// bit-exactly under QMCU_FORCE_NO_DOT, on NEON, or on plain AVX2.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "nn/compiled_model.h"
#include "nn/graph.h"

namespace qmcu::nn {

enum class ArtifactModelKind : std::uint32_t {
  Float = 0,
  Quant = 1,
  PatchQuant = 2,
};

// The kernel-generation fingerprint baked into an artifact header.
struct KernelFingerprint {
  std::uint32_t gemm_generation = 0;  // 0 scalar, 1 pair-madd, 2 dot-product
  std::int32_t gemm_a_bias = 0;       // activation bias of gemm_block_i8

  // The generation the current process would dispatch (honours the live
  // QMCU_FORCE_* environment).
  static KernelFingerprint current();
  bool operator==(const KernelFingerprint&) const = default;
};

constexpr std::uint32_t artifact_tag(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

// Extra named section appended by a higher layer (the patch artifact
// writer): raw payload bytes, checksummed and aligned like built-ins.
struct ArtifactSection {
  std::uint32_t tag = 0;
  std::string bytes;
};

// --- writers ---------------------------------------------------------------

// Float model: topology + float parameters (zero-copy at load) + plan.
void compile_to_artifact(const Graph& g, const std::string& path);

// Quantized model: everything a CompiledQuantModel computes at
// construction. `extra` appends caller sections (the patch writer's).
void compile_to_artifact(const Graph& g, const ActivationQuantConfig& cfg,
                         const std::string& path,
                         std::span<const ArtifactSection> extra = {},
                         ArtifactModelKind kind = ArtifactModelKind::Quant);

// The same, from `params` the caller already built with
// QuantizedParameters::build(g, cfg) — the patch writer quantizes once for
// its branch biases and the bake. The file is byte-identical.
void compile_to_artifact(const Graph& g, const ActivationQuantConfig& cfg,
                         const QuantizedParameters& params,
                         const std::string& path,
                         std::span<const ArtifactSection> extra = {},
                         ArtifactModelKind kind = ArtifactModelKind::Quant);

// --- loader ----------------------------------------------------------------

// A mapped artifact. Owns the mmap; every model constructed from it views
// the mapping, so the artifact must outlive the models (load_compiled
// returns both under shared ownership).
class PlanArtifact {
 public:
  static std::shared_ptr<const PlanArtifact> map(const std::string& path);

  ~PlanArtifact();
  PlanArtifact(const PlanArtifact&) = delete;
  PlanArtifact& operator=(const PlanArtifact&) = delete;

  [[nodiscard]] ArtifactModelKind kind() const { return kind_; }
  [[nodiscard]] const KernelFingerprint& fingerprint() const {
    return fingerprint_;
  }
  // False when the artifact was baked under a different kernel generation
  // than this process dispatches (the loader then re-derived offset rows).
  [[nodiscard]] bool fingerprint_matches() const {
    return fingerprint_ == KernelFingerprint::current();
  }
  [[nodiscard]] std::size_t mapped_bytes() const { return mapped_size_; }

  [[nodiscard]] const Graph& graph() const { return *graph_; }
  [[nodiscard]] const ActivationQuantConfig& config() const;
  [[nodiscard]] const std::shared_ptr<const QuantizedParameters>&
  parameters() const {
    return params_;
  }
  [[nodiscard]] const std::shared_ptr<const PrecompiledBundle>& bundle()
      const {
    return bundle_;
  }
  [[nodiscard]] const ArenaPlan& arena_plan() const { return plan_; }

  // Raw payload of a caller section (empty span when absent) — the patch
  // artifact loader parses its own sections through this.
  [[nodiscard]] std::span<const std::uint8_t> section(
      std::uint32_t tag) const;

  // Model factories. The caller must keep this artifact alive for the
  // model's lifetime (the models view the mapping).
  [[nodiscard]] std::unique_ptr<CompiledModel> make_float_model(
      ops::KernelTier tier = ops::KernelTier::Simd) const;
  [[nodiscard]] std::unique_ptr<CompiledQuantModel> make_quant_model(
      ops::KernelTier tier = ops::KernelTier::Simd) const;

 private:
  PlanArtifact() = default;

  void* mapped_ = nullptr;
  std::size_t mapped_size_ = 0;
  ArtifactModelKind kind_ = ArtifactModelKind::Quant;
  KernelFingerprint fingerprint_;
  struct Section {
    std::uint32_t tag = 0;
    std::span<const std::uint8_t> bytes;
  };
  std::vector<Section> sections_;
  std::optional<Graph> graph_;
  std::optional<ActivationQuantConfig> config_;
  std::shared_ptr<const QuantizedParameters> params_;
  std::shared_ptr<const PrecompiledBundle> bundle_;
  ArenaPlan plan_;
  // Offset rows recomputed at map time when the baked kernel generation
  // differs from the running one (the only generation-dependent data).
  std::vector<std::vector<std::int32_t>> rederived_offsets_;
};

// Artifact + model under shared ownership: the mapping outlives every view.
struct LoadedModel {
  std::shared_ptr<const PlanArtifact> artifact;
  std::unique_ptr<CompiledModel> float_model;     // Float kind
  std::unique_ptr<CompiledQuantModel> model;      // Quant kind

  [[nodiscard]] ArtifactModelKind kind() const { return artifact->kind(); }
};

// Maps `path` and constructs the model it describes (Float or Quant kind;
// PatchQuant artifacts load through patch::load_compiled_patch).
LoadedModel load_compiled(const std::string& path,
                          ops::KernelTier tier = ops::KernelTier::Simd);

// --- wire helpers (shared with the patch artifact writer/loader) -----------

namespace artifact_detail {

class ByteWriter {
 public:
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f32(float v);

  std::string out;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  float f32();
  [[nodiscard]] bool done() const { return pos_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace artifact_detail

}  // namespace qmcu::nn
