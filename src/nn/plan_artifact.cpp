#include "nn/plan_artifact.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "nn/checksum.h"
#include "nn/ops/gemm_int8.h"
#include "nn/ops/im2col.h"
#include "nn/ops/simd/simd_kernels.h"
#include "nn/serialize.h"

namespace qmcu::nn {

namespace artifact_detail {

void ByteWriter::f32(float v) {
  static_assert(sizeof(float) == 4);
  std::uint32_t bits;
  std::memcpy(&bits, &v, 4);
  u32(bits);
}

std::uint32_t ByteReader::u32() {
  QMCU_REQUIRE(pos_ + 4 <= bytes_.size(), "truncated artifact section");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(bytes_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  QMCU_REQUIRE(pos_ + 8 <= bytes_.size(), "truncated artifact section");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

float ByteReader::f32() {
  const std::uint32_t bits = u32();
  float v;
  std::memcpy(&v, &bits, 4);
  return v;
}

}  // namespace artifact_detail

using artifact_detail::ByteReader;
using artifact_detail::ByteWriter;

namespace {

constexpr char kArtifactMagic[4] = {'Q', 'M', 'C', 'P'};
constexpr std::uint32_t kArtifactVersion = 2;
constexpr std::uint32_t kEndianSentinel = 0x01020304u;
constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kSectionEntryBytes = 32;
constexpr std::size_t kBlobAlign = 64;

constexpr std::uint32_t kTagGraph = artifact_tag('G', 'R', 'P', 'H');
constexpr std::uint32_t kTagQuantConfig = artifact_tag('Q', 'C', 'F', 'G');
constexpr std::uint32_t kTagLayerIndex = artifact_tag('L', 'I', 'D', 'X');
constexpr std::uint32_t kTagArenaPlan = artifact_tag('P', 'L', 'A', 'N');
constexpr std::uint32_t kTagFloatIndex = artifact_tag('F', 'I', 'D', 'X');
constexpr std::uint32_t kTagBlob = artifact_tag('B', 'L', 'O', 'B');

// Per-MAC-layer LIDX record flags.
constexpr std::uint32_t kLayerHasPanel = 1u << 0;  // Conv2D / FullyConnected

std::size_t align_up(std::size_t n) {
  return (n + kBlobAlign - 1) / kBlobAlign * kBlobAlign;
}

// Bulk-data region under construction: every blob 64-aligned so mapped
// pointers carry the alignment of the page-aligned mmap base. Offsets are
// relative to the BLOB section payload start (the section itself is
// 64-aligned in the file). A caller that knows a bound on the total
// reserves it up front, so the region is allocated once, not regrown.
class BlobBuilder {
 public:
  explicit BlobBuilder(std::size_t capacity = 0) { data_.reserve(capacity); }

  // Appends a copy of `bytes` bytes at `p`; returns its offset.
  std::uint64_t add(const void* p, std::size_t bytes) {
    const std::uint64_t off = align();
    data_.append(static_cast<const char*>(p), bytes);
    return off;
  }
  // Appends `bytes` zero bytes for the caller to fill in place through
  // at(); returns their offset.
  std::uint64_t add_zeroed(std::size_t bytes) {
    const std::uint64_t off = align();
    data_.resize(data_.size() + bytes, '\0');
    return off;
  }
  [[nodiscard]] char* at(std::uint64_t off) { return data_.data() + off; }
  [[nodiscard]] std::string take() { return std::move(data_); }

 private:
  std::uint64_t align() {
    data_.resize(align_up(data_.size()), '\0');
    return data_.size();
  }

  std::string data_;
};

struct SectionOut {
  std::uint32_t tag = 0;
  std::string payload;
};

void write_u32_at(std::string& buf, std::size_t pos, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf[pos + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

void write_u64_at(std::string& buf, std::size_t pos, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf[pos + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// Lays the header, the section table and every 64-aligned payload into one
// buffer reserved at the file's final size, then writes it.
void write_artifact_file(const std::string& path, ArtifactModelKind kind,
                         const KernelFingerprint& fp,
                         std::span<const SectionOut> sections) {
  std::size_t file_size = kHeaderBytes + sections.size() * kSectionEntryBytes;
  for (const SectionOut& s : sections) {
    file_size = align_up(file_size) + s.payload.size();
  }
  std::string file;
  file.reserve(file_size);
  file.resize(kHeaderBytes + sections.size() * kSectionEntryBytes, '\0');

  std::memcpy(file.data(), kArtifactMagic, 4);
  write_u32_at(file, 4, kArtifactVersion);
  write_u32_at(file, 8, kEndianSentinel);
  write_u32_at(file, 12, static_cast<std::uint32_t>(kind));
  write_u32_at(file, 16, fp.gemm_generation);
  write_u32_at(file, 20, static_cast<std::uint32_t>(fp.gemm_a_bias));
  // Byte 24 is reserved (zero): the string-initialised header already is.
  write_u32_at(file, 28, static_cast<std::uint32_t>(sections.size()));
  write_u64_at(file, 32, file_size);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const std::string& payload = sections[i].payload;
    file.resize(align_up(file.size()), '\0');
    const std::size_t e = kHeaderBytes + i * kSectionEntryBytes;
    write_u32_at(file, e, sections[i].tag);
    write_u64_at(file, e + 8, file.size());
    write_u64_at(file, e + 16, payload.size());
    write_u32_at(file, e + 24, crc32(payload.data(), payload.size()));
    file.append(payload);
  }

  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  QMCU_REQUIRE(os.is_open(), "cannot open file for writing: " + path);
  os.write(file.data(), static_cast<std::streamsize>(file.size()));
  QMCU_REQUIRE(os.good(), "write failed: " + path);
}

std::string graph_section(const Graph& g) {
  std::ostringstream os;
  write_graph(g, os, /*include_parameters=*/false);
  return os.str();
}

std::string plan_section(const ArenaPlan& plan) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(plan.slots.size()));
  for (const ArenaSlot& s : plan.slots) {
    w.i64(s.offset);
    w.i64(s.size);
    w.i32(s.first_step);
    w.i32(s.last_step);
  }
  w.i64(plan.peak_bytes);
  w.i64(plan.live_peak_bytes);
  return std::move(w.out);
}

ArenaPlan parse_plan_section(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  const std::uint32_t count = r.u32();
  QMCU_REQUIRE(count <= (1u << 20), "implausible slot count in artifact");
  ArenaPlan plan;
  plan.slots.resize(count);
  for (ArenaSlot& s : plan.slots) {
    s.offset = r.i64();
    s.size = r.i64();
    s.first_step = r.i32();
    s.last_step = r.i32();
    QMCU_REQUIRE(s.offset >= 0 && s.size >= 0, "negative arena slot");
  }
  plan.peak_bytes = r.i64();
  plan.live_peak_bytes = r.i64();
  QMCU_REQUIRE(r.done(), "trailing bytes in artifact arena plan");
  for (const ArenaSlot& s : plan.slots) {
    QMCU_REQUIRE(s.offset + s.size <= plan.peak_bytes,
                 "arena slot outside the planned peak");
  }
  return plan;
}

}  // namespace

KernelFingerprint KernelFingerprint::current() {
  const ops::simd::SimdKernels* k = ops::simd::kernels();
  KernelFingerprint fp;
  fp.gemm_generation = (k == nullptr || k->gemm_block_i8 == nullptr)
                           ? 0u
                           : (k->gemm_dot ? 2u : 1u);
  fp.gemm_a_bias = ops::simd::gemm_activation_bias(k);
  return fp;
}

// --- writers ---------------------------------------------------------------

void compile_to_artifact(const Graph& g, const std::string& path) {
  QMCU_REQUIRE(g.inputs().size() == 1, "artifact expects one input layer");
  BlobBuilder blob;
  ByteWriter fidx;
  std::uint32_t records = 0;
  for (int id = 0; id < g.size(); ++id) {
    if (!g.has_parameters(id)) continue;
    const std::span<const float> w = g.weights(id);
    const std::span<const float> b = g.bias(id);
    fidx.i32(id);
    fidx.u64(blob.add(w.data(), w.size_bytes()));
    fidx.u64(w.size());
    fidx.u64(b.empty() ? 0 : blob.add(b.data(), b.size_bytes()));
    fidx.u64(b.size());
    ++records;
  }
  ByteWriter head;
  head.u32(records);
  fidx.out.insert(0, head.out);

  std::vector<SectionOut> sections;
  sections.push_back({kTagGraph, graph_section(g)});
  sections.push_back({kTagFloatIndex, std::move(fidx.out)});
  sections.push_back(
      {kTagArenaPlan,
       plan_section(plan_execution_arena(
           g, static_cast<std::int64_t>(sizeof(float))))});
  sections.push_back({kTagBlob, blob.take()});
  write_artifact_file(path, ArtifactModelKind::Float,
                      KernelFingerprint::current(), sections);
}

void compile_to_artifact(const Graph& g, const ActivationQuantConfig& cfg,
                         const std::string& path,
                         std::span<const ArtifactSection> extra,
                         ArtifactModelKind kind) {
  compile_to_artifact(g, cfg, QuantizedParameters::build(g, cfg), path, extra,
                      kind);
}

void compile_to_artifact(const Graph& g, const ActivationQuantConfig& cfg,
                         const QuantizedParameters& params,
                         const std::string& path,
                         std::span<const ArtifactSection> extra,
                         ArtifactModelKind kind) {
  QMCU_REQUIRE(g.inputs().size() == 1, "artifact expects one input layer");
  QMCU_REQUIRE(kind != ArtifactModelKind::Float,
               "float artifacts carry no quant config");
  QMCU_REQUIRE(params.weights.size() == static_cast<std::size_t>(g.size()) &&
                   params.bias.size() == static_cast<std::size_t>(g.size()),
               "quantized parameters do not cover the graph");
  const std::vector<QuantParams> effective = effective_output_params(g, cfg);
  const std::int32_t a_bias =
      ops::simd::gemm_activation_bias(ops::simd::kernels());

  // An upper bound on the blob bytes added below, so the region is
  // allocated once: per MAC layer the weights, the k-major panel (as many
  // bytes), the bias, two int32 rows of out_channels and the alignment
  // padding of five blobs.
  std::size_t blob_bound = 0;
  for (int id = 0; id < g.size(); ++id) {
    const auto i = static_cast<std::size_t>(id);
    if (!is_mac_op(g.layer(id).kind) || params.weights[i].data.empty()) {
      continue;
    }
    blob_bound += 2 * params.weights[i].data.size() +
                  params.bias[i].size_bytes() +
                  8 * static_cast<std::size_t>(g.layer(id).out_channels) +
                  5 * kBlobAlign;
  }
  BlobBuilder blob(blob_bound);
  ByteWriter lidx;
  std::uint32_t records = 0;
  for (int id = 0; id < g.size(); ++id) {
    const Layer& l = g.layer(id);
    const auto i = static_cast<std::size_t>(id);
    if (!is_mac_op(l.kind) || params.weights[i].data.empty()) continue;
    const std::span<const std::int8_t> qw = params.weights[i].data;
    const std::span<const std::int32_t> bias = params.bias[i];

    std::uint32_t flags = 0;
    int n = 0;
    std::int64_t k = 0;
    std::int32_t a_zp = 0;
    std::vector<std::int32_t> wsum;
    std::vector<std::int32_t> offr;
    if (l.kind != OpKind::DepthwiseConv2D) {
      flags |= kLayerHasPanel;
      n = l.out_channels;
      k = l.kind == OpKind::Conv2D
              ? ops::im2col_row_elements(g.shape(l.inputs[0]), l)
              : g.shape(l.inputs[0]).elements();
      QMCU_ENSURE(static_cast<std::int64_t>(qw.size()) == k * n,
                  "weight blob does not match panel geometry");
      wsum.resize(static_cast<std::size_t>(n));
      ops::weight_column_sums(qw, n, static_cast<int>(k), wsum.data());
      // The per-column requantization offset bias[j] − a_zp·wsum[j] — the
      // only kernel-generation-dependent table (dot-product GEMMs shift
      // activations by gemm_a_bias). Baked for the writer's generation;
      // the loader re-derives on a fingerprint mismatch.
      a_zp = effective[static_cast<std::size_t>(l.inputs[0])].zero_point +
             a_bias;
      offr.resize(static_cast<std::size_t>(n));
      for (int j = 0; j < n; ++j) {
        const std::int32_t bj =
            bias.empty() ? 0 : bias[static_cast<std::size_t>(j)];
        offr[static_cast<std::size_t>(j)] =
            bj - a_zp * wsum[static_cast<std::size_t>(j)];
      }
    }

    lidx.i32(id);
    lidx.u32(flags);
    lidx.i32(n);
    lidx.i64(k);
    lidx.i32(a_zp);
    lidx.f32(params.weights[i].params.scale);
    lidx.u64(blob.add(qw.data(), qw.size_bytes()));
    lidx.u64(qw.size());
    lidx.u64(bias.empty() ? 0 : blob.add(bias.data(), bias.size_bytes()));
    lidx.u64(bias.size());
    if ((flags & kLayerHasPanel) != 0) {
      // The k-major panel is packed straight into its blob.
      const std::uint64_t bt = blob.add_zeroed(qw.size());
      ops::pack_weights_kmajor(qw, n, static_cast<int>(k),
                               reinterpret_cast<std::int8_t*>(blob.at(bt)));
      lidx.u64(bt);
      lidx.u64(blob.add(wsum.data(), wsum.size() * 4));
      lidx.u64(blob.add(offr.data(), offr.size() * 4));
    } else {
      lidx.u64(0);
      lidx.u64(0);
      lidx.u64(0);
    }
    ++records;
  }
  ByteWriter head;
  head.u32(records);
  lidx.out.insert(0, head.out);

  std::ostringstream qcfg;
  write_quant_config(cfg, qcfg);

  std::vector<SectionOut> sections;
  sections.push_back({kTagGraph, graph_section(g)});
  sections.push_back({kTagQuantConfig, qcfg.str()});
  sections.push_back({kTagLayerIndex, std::move(lidx.out)});
  sections.push_back({kTagArenaPlan, plan_section(plan_execution_arena(g, 1))});
  for (const ArtifactSection& s : extra) {
    sections.push_back({s.tag, s.bytes});
  }
  sections.push_back({kTagBlob, blob.take()});
  write_artifact_file(path, kind, KernelFingerprint::current(), sections);
}

// --- loader ----------------------------------------------------------------

PlanArtifact::~PlanArtifact() {
  if (mapped_ != nullptr) {
    ::munmap(mapped_, mapped_size_);
  }
}

const ActivationQuantConfig& PlanArtifact::config() const {
  QMCU_REQUIRE(config_.has_value(), "float artifacts carry no quant config");
  return *config_;
}

std::span<const std::uint8_t> PlanArtifact::section(std::uint32_t tag) const {
  for (const Section& s : sections_) {
    if (s.tag == tag) return s.bytes;
  }
  return {};
}

std::shared_ptr<const PlanArtifact> PlanArtifact::map(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  QMCU_REQUIRE(fd >= 0, "cannot open artifact: " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    QMCU_REQUIRE(false, "cannot stat artifact: " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size < kHeaderBytes) {
    ::close(fd);
    QMCU_REQUIRE(false, "truncated artifact (no header): " + path);
  }
  // MAP_SHARED + PROT_READ: the kernel backs every process mapping this
  // artifact with the same physical pages — the fleet-wide weight sharing
  // the artifact exists for. The mapping is never written.
  void* mem = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  QMCU_REQUIRE(mem != MAP_FAILED, "mmap failed: " + path);

  std::shared_ptr<PlanArtifact> art(new PlanArtifact());
  art->mapped_ = mem;
  art->mapped_size_ = size;
  const auto* base = static_cast<const std::uint8_t*>(mem);

  // Header: magic, version, endianness, kind, fingerprint, section table.
  QMCU_REQUIRE(std::memcmp(base, kArtifactMagic, 4) == 0,
               "bad magic: not a QMCP artifact: " + path);
  ByteReader hdr(std::span<const std::uint8_t>(base + 4, kHeaderBytes - 4));
  QMCU_REQUIRE(hdr.u32() == kArtifactVersion,
               "unsupported artifact version: " + path);
  QMCU_REQUIRE(hdr.u32() == kEndianSentinel,
               "endianness sentinel mismatch: artifact written on an "
               "incompatible host");
  const std::uint32_t kind = hdr.u32();
  QMCU_REQUIRE(kind <= static_cast<std::uint32_t>(ArtifactModelKind::PatchQuant),
               "unknown artifact model kind");
  art->kind_ = static_cast<ArtifactModelKind>(kind);
  art->fingerprint_.gemm_generation = hdr.u32();
  art->fingerprint_.gemm_a_bias = hdr.i32();
  QMCU_REQUIRE(hdr.u32() == 0, "reserved artifact header word is not zero");
  const std::uint32_t nsections = hdr.u32();
  QMCU_REQUIRE(nsections <= 64, "implausible artifact section count");
  QMCU_REQUIRE(hdr.u64() == size,
               "artifact size mismatch: truncated or padded file");
  QMCU_REQUIRE(kHeaderBytes + nsections * kSectionEntryBytes <= size,
               "truncated artifact section table");

  // Every section's checksum is verified before any payload byte is
  // interpreted — corruption anywhere fails loudly here, not downstream.
  for (std::uint32_t i = 0; i < nsections; ++i) {
    ByteReader e(std::span<const std::uint8_t>(
        base + kHeaderBytes + i * kSectionEntryBytes, kSectionEntryBytes));
    Section s;
    s.tag = e.u32();
    (void)e.u32();
    const std::uint64_t off = e.u64();
    const std::uint64_t len = e.u64();
    const std::uint32_t crc = e.u32();
    QMCU_REQUIRE(off <= size && len <= size - off,
                 "artifact section outside the file");
    // Blob views are read as int32/float arrays at offsets the writer
    // aligned relative to the section start, so the section itself must
    // keep the writer's alignment.
    QMCU_REQUIRE(off % kBlobAlign == 0, "misaligned artifact section");
    s.bytes = std::span<const std::uint8_t>(base + off,
                                            static_cast<std::size_t>(len));
    QMCU_REQUIRE(crc == crc32(s.bytes.data(), s.bytes.size()),
                 "checksum mismatch: corrupt artifact section");
    art->sections_.push_back(s);
  }

  const auto section_of = [&](std::uint32_t tag,
                              const char* what) -> std::span<const std::uint8_t> {
    const std::span<const std::uint8_t> s = art->section(tag);
    QMCU_REQUIRE(!s.empty(), std::string("artifact missing section: ") + what);
    return s;
  };

  {
    const std::span<const std::uint8_t> grph = section_of(kTagGraph, "GRPH");
    std::istringstream is(
        std::string(reinterpret_cast<const char*>(grph.data()), grph.size()));
    art->graph_.emplace(read_graph(is));
  }
  const Graph& g = *art->graph_;
  art->plan_ = parse_plan_section(section_of(kTagArenaPlan, "PLAN"));

  const std::span<const std::uint8_t> blob = art->section(kTagBlob);
  // `count` elements of `elem` bytes each at `off`, aligned to `elem`. The
  // bound divides instead of multiplying, so a hostile count cannot wrap.
  const auto blob_bytes = [&](std::uint64_t off, std::uint64_t count,
                              std::size_t elem) -> const std::uint8_t* {
    QMCU_REQUIRE(off <= blob.size() && count <= (blob.size() - off) / elem,
                 "artifact blob reference outside the data section");
    QMCU_REQUIRE(off % elem == 0, "misaligned artifact blob");
    return blob.data() + off;
  };

  if (art->kind_ == ArtifactModelKind::Float) {
    ByteReader r(section_of(kTagFloatIndex, "FIDX"));
    const std::uint32_t records = r.u32();
    for (std::uint32_t i = 0; i < records; ++i) {
      const std::int32_t id = r.i32();
      QMCU_REQUIRE(id >= 0 && id < g.size(), "layer id out of range");
      const std::uint64_t w_off = r.u64();
      const std::uint64_t w_count = r.u64();
      const std::uint64_t b_off = r.u64();
      const std::uint64_t b_count = r.u64();
      const auto* w = reinterpret_cast<const float*>(
          blob_bytes(w_off, w_count, sizeof(float)));
      const auto* b = reinterpret_cast<const float*>(
          blob_bytes(b_off, b_count, sizeof(float)));
      // set_parameter_views revalidates counts against layer geometry.
      art->graph_->set_parameter_views(
          id, std::span<const float>(w, static_cast<std::size_t>(w_count)),
          std::span<const float>(b, static_cast<std::size_t>(b_count)));
    }
    QMCU_REQUIRE(r.done(), "trailing bytes in artifact float index");
    return art;
  }

  // Quant kinds: parameters, panels and offset rows are all
  // span views into the mapping (zero copy). Offset rows are the one
  // generation-dependent table; on a fingerprint mismatch they are
  // re-derived here into private memory — everything else loads as-is.
  {
    const std::span<const std::uint8_t> qcfg =
        section_of(kTagQuantConfig, "QCFG");
    std::istringstream is(
        std::string(reinterpret_cast<const char*>(qcfg.data()), qcfg.size()));
    art->config_.emplace(read_quant_config(is));
  }
  QMCU_REQUIRE(static_cast<int>(art->config_->params.size()) == g.size(),
               "artifact quant config does not cover the graph");
  const std::vector<QuantParams> effective =
      effective_output_params(g, *art->config_);
  const std::int32_t a_bias_now =
      ops::simd::gemm_activation_bias(ops::simd::kernels());

  auto params = std::make_shared<QuantizedParameters>();
  params->weights.resize(static_cast<std::size_t>(g.size()));
  params->bias.resize(static_cast<std::size_t>(g.size()));
  auto bundle = std::make_shared<PrecompiledBundle>();

  ByteReader r(section_of(kTagLayerIndex, "LIDX"));
  const std::uint32_t records = r.u32();
  for (std::uint32_t rec = 0; rec < records; ++rec) {
    const std::int32_t id = r.i32();
    QMCU_REQUIRE(id >= 0 && id < g.size(), "layer id out of range");
    const Layer& l = g.layer(id);
    QMCU_REQUIRE(is_mac_op(l.kind), "artifact parameters on a non-MAC layer");
    const std::uint32_t flags = r.u32();
    QMCU_REQUIRE((flags & ~kLayerHasPanel) == 0,
                 "unknown flags in artifact layer record");
    const std::int32_t n = r.i32();
    const std::int64_t k = r.i64();
    const std::int32_t baked_a_zp = r.i32();
    const float wscale = r.f32();
    QMCU_REQUIRE(wscale > 0.0f, "invalid weight scale in artifact");
    const std::uint64_t qw_off = r.u64();
    const std::uint64_t qw_count = r.u64();
    const std::uint64_t bias_off = r.u64();
    const std::uint64_t bias_count = r.u64();
    const std::uint64_t panel_off = r.u64();
    const std::uint64_t wsum_off = r.u64();
    const std::uint64_t offr_off = r.u64();

    QMCU_REQUIRE(static_cast<std::int64_t>(qw_count) == g.weight_count(id),
                 "artifact weight count does not match layer geometry");
    // Kernels read qbias[j] for every output channel j, so a bias blob is
    // either absent or exactly one int32 per channel.
    QMCU_REQUIRE(bias_count == 0 ||
                     bias_count == static_cast<std::uint64_t>(g.shape(id).c),
                 "artifact bias count does not match the layer's channels");
    const auto* qw = reinterpret_cast<const std::int8_t*>(
        blob_bytes(qw_off, qw_count, 1));
    const auto i = static_cast<std::size_t>(id);
    params->weights[i] = {
        std::span<const std::int8_t>(qw, static_cast<std::size_t>(qw_count)),
        QuantParams{wscale, 0, 8}};
    if (bias_count != 0) {
      const auto* bias = reinterpret_cast<const std::int32_t*>(
          blob_bytes(bias_off, bias_count, sizeof(std::int32_t)));
      params->bias[i] = std::span<const std::int32_t>(
          bias, static_cast<std::size_t>(bias_count));
    }

    if ((flags & kLayerHasPanel) != 0) {
      // k is checked by division: a hostile k must not overflow k * n.
      QMCU_REQUIRE(n == l.out_channels && n > 0 && k > 0 &&
                       qw_count % static_cast<std::uint64_t>(n) == 0 &&
                       static_cast<std::uint64_t>(k) ==
                           qw_count / static_cast<std::uint64_t>(n),
                   "artifact panel geometry does not match the layer");
      const auto* bt = reinterpret_cast<const std::int8_t*>(
          blob_bytes(panel_off, qw_count, 1));
      const auto* wsum = reinterpret_cast<const std::int32_t*>(blob_bytes(
          wsum_off, static_cast<std::uint64_t>(n), sizeof(std::int32_t)));
      const std::span<const std::int32_t> wsum_span(
          wsum, static_cast<std::size_t>(n));
      bundle->panels.push_back(
          {qw,
           std::span<const std::int8_t>(bt,
                                        static_cast<std::size_t>(qw_count)),
           wsum_span});

      const std::int32_t a_zp_now =
          effective[static_cast<std::size_t>(l.inputs[0])].zero_point +
          a_bias_now;
      const auto* offr = reinterpret_cast<const std::int32_t*>(blob_bytes(
          offr_off, static_cast<std::uint64_t>(n), sizeof(std::int32_t)));
      if (a_zp_now == baked_a_zp) {
        bundle->offsets.push_back(
            {qw, baked_a_zp, params->bias[i].data(),
             std::span<const std::int32_t>(offr,
                                           static_cast<std::size_t>(n))});
      } else {
        // Kernel-generation mismatch: re-derive this small row for the
        // running generation (offset[j] = bias[j] − a_zp·wsum[j]).
        std::vector<std::int32_t> row(static_cast<std::size_t>(n));
        for (int j = 0; j < n; ++j) {
          const std::int32_t bj =
              params->bias[i].empty()
                  ? 0
                  : params->bias[i][static_cast<std::size_t>(j)];
          row[static_cast<std::size_t>(j)] =
              bj - a_zp_now * wsum_span[static_cast<std::size_t>(j)];
        }
        art->rederived_offsets_.push_back(std::move(row));
        bundle->offsets.push_back(
            {qw, a_zp_now, params->bias[i].data(),
             std::span<const std::int32_t>(art->rederived_offsets_.back())});
      }
    }
  }
  QMCU_REQUIRE(r.done(), "trailing bytes in artifact layer index");

  art->params_ = std::move(params);
  art->bundle_ = std::move(bundle);
  return art;
}

std::unique_ptr<CompiledModel> PlanArtifact::make_float_model(
    ops::KernelTier tier) const {
  QMCU_REQUIRE(kind_ == ArtifactModelKind::Float,
               "artifact does not describe a float model");
  return std::make_unique<CompiledModel>(*graph_, plan_, tier);
}

std::unique_ptr<CompiledQuantModel> PlanArtifact::make_quant_model(
    ops::KernelTier tier) const {
  QMCU_REQUIRE(kind_ == ArtifactModelKind::Quant,
               "artifact does not describe a layer-based quant model");
  return std::make_unique<CompiledQuantModel>(*graph_, *config_, params_,
                                              plan_, bundle_, tier);
}

LoadedModel load_compiled(const std::string& path, ops::KernelTier tier) {
  LoadedModel out;
  out.artifact = PlanArtifact::map(path);
  switch (out.artifact->kind()) {
    case ArtifactModelKind::Float:
      out.float_model = out.artifact->make_float_model(tier);
      break;
    case ArtifactModelKind::Quant:
      out.model = out.artifact->make_quant_model(tier);
      break;
    case ArtifactModelKind::PatchQuant:
      QMCU_REQUIRE(false,
                   "patch artifacts load through patch::load_compiled_patch");
  }
  return out;
}

}  // namespace qmcu::nn
