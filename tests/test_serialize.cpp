// Tests for binary model serialization (nn/serialize.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <utility>

#include "models/zoo.h"
#include "nn/compiled_model.h"
#include "nn/memory_planner.h"
#include "nn/rng.h"
#include "nn/serialize.h"
#include "quant/calibration.h"

namespace qmcu::nn {
namespace {

Graph sample_graph() {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.25f;
  cfg.resolution = 32;
  cfg.num_classes = 10;
  return models::make_mobilenet_v2(cfg);
}

Tensor random_input(TensorShape s, std::uint64_t seed) {
  Tensor t(s);
  Rng rng(seed);
  for (float& v : t.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

TEST(Serialize, RoundTripPreservesStructure) {
  const Graph g = sample_graph();
  std::stringstream ss;
  write_graph(g, ss);
  const Graph back = read_graph(ss);
  ASSERT_EQ(back.size(), g.size());
  EXPECT_EQ(back.name(), g.name());
  for (int i = 0; i < g.size(); ++i) {
    EXPECT_EQ(back.layer(i).kind, g.layer(i).kind) << i;
    EXPECT_EQ(back.layer(i).name, g.layer(i).name) << i;
    EXPECT_EQ(back.layer(i).inputs, g.layer(i).inputs) << i;
    EXPECT_EQ(back.layer(i).act, g.layer(i).act) << i;
    EXPECT_EQ(back.shape(i), g.shape(i)) << i;
  }
}

TEST(Serialize, RoundTripPreservesParametersBitExactly) {
  const Graph g = sample_graph();
  std::stringstream ss;
  write_graph(g, ss);
  const Graph back = read_graph(ss);
  for (int i = 0; i < g.size(); ++i) {
    ASSERT_EQ(back.has_parameters(i), g.has_parameters(i)) << i;
    const auto wa = g.weights(i);
    const auto wb = back.weights(i);
    ASSERT_EQ(wa.size(), wb.size()) << i;
    for (std::size_t j = 0; j < wa.size(); ++j) {
      ASSERT_EQ(wa[j], wb[j]) << "layer " << i;
    }
  }
}

TEST(Serialize, LoadedModelComputesIdenticalOutputs) {
  const Graph g = sample_graph();
  std::stringstream ss;
  write_graph(g, ss);
  const Graph back = read_graph(ss);
  const Tensor in = random_input(g.shape(0), 3);
  const Tensor a = CompiledModel(g).run(in);
  const Tensor b = CompiledModel(back).run(in);
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]);
  }
}

TEST(Serialize, FileRoundTrip) {
  const Graph g = sample_graph();
  const std::string path = ::testing::TempDir() + "/model.qmcu";
  save_graph(g, path);
  const Graph back = load_graph(path);
  EXPECT_EQ(back.size(), g.size());
  EXPECT_EQ(back.total_macs(), g.total_macs());
}

TEST(Serialize, RejectsWrongMagic) {
  std::stringstream ss;
  ss << "NOPE0000 garbage";
  EXPECT_THROW(read_graph(ss), std::invalid_argument);
}

TEST(Serialize, RejectsTruncatedFile) {
  const Graph g = sample_graph();
  std::stringstream ss;
  write_graph(g, ss);
  const std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(read_graph(cut), std::invalid_argument);
}

TEST(Serialize, RejectsMissingFile) {
  EXPECT_THROW(load_graph("/nonexistent/path/model.qmcu"),
               std::invalid_argument);
}

TEST(Serialize, RejectsTruncationAtEveryPrefixLength) {
  // Any strict prefix must be rejected — the payload-size framing plus the
  // trailing checksum mean no truncation point can slip through, including
  // cuts inside the header and one byte short of the full stream.
  const Graph g = sample_graph();
  std::stringstream ss;
  write_graph(g, ss);
  const std::string full = ss.str();
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{7},
                          std::size_t{11}, std::size_t{19},
                          full.size() / 3, full.size() - 1}) {
    std::stringstream prefix(full.substr(0, cut));
    EXPECT_THROW(read_graph(prefix), std::invalid_argument) << "cut=" << cut;
  }
}

TEST(Serialize, RejectsBitFlippedStream) {
  // Flip one bit at a spread of positions across the stream (header fields,
  // payload, checksum trailer): every single one must fail loudly.
  const Graph g = sample_graph();
  std::stringstream ss;
  write_graph(g, ss);
  const std::string full = ss.str();
  for (std::size_t pos = 0; pos < full.size();
       pos += std::max<std::size_t>(1, full.size() / 97)) {
    std::string bad = full;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x10);
    std::stringstream corrupted(bad);
    EXPECT_THROW(read_graph(corrupted), std::invalid_argument)
        << "flip at byte " << pos;
  }
}

TEST(Serialize, RejectsUnsupportedVersion) {
  const Graph g = sample_graph();
  std::stringstream ss;
  write_graph(g, ss);
  std::string bad = ss.str();
  bad[4] = 99;  // version word follows the 4-byte magic (little-endian)
  std::stringstream vs(bad);
  EXPECT_THROW(read_graph(vs), std::invalid_argument);
}

TEST(Serialize, RejectsByteSwappedEndianSentinel) {
  const Graph g = sample_graph();
  std::stringstream ss;
  write_graph(g, ss);
  std::string bad = ss.str();
  // The sentinel 0x01020304 sits after magic+version; byte-swap it the way
  // a big-endian writer would have laid it down.
  std::swap(bad[8], bad[11]);
  std::swap(bad[9], bad[10]);
  std::stringstream es(bad);
  EXPECT_THROW(read_graph(es), std::invalid_argument);
}

TEST(Serialize, QuantConfigRejectsTruncationAndCorruption) {
  const Graph g = sample_graph();
  const std::vector<Tensor> calib{random_input(g.shape(0), 8)};
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto cfg = quant::make_quant_config(g, ranges, uniform_bits(g, 8));
  std::stringstream ss;
  write_quant_config(cfg, ss);
  const std::string full = ss.str();

  std::stringstream cut(full.substr(0, full.size() - 3));
  EXPECT_THROW(read_quant_config(cut), std::invalid_argument);

  std::string flipped = full;
  flipped[full.size() / 2] = static_cast<char>(flipped[full.size() / 2] ^ 1);
  std::stringstream cs(flipped);
  EXPECT_THROW(read_quant_config(cs), std::invalid_argument);
}

TEST(Serialize, QuantConfigRoundTrip) {
  const Graph g = sample_graph();
  const std::vector<Tensor> calib{random_input(g.shape(0), 5)};
  const auto ranges = quant::calibrate_ranges(g, calib);
  std::vector<int> bits = uniform_bits(g, 8);
  bits[2] = 4;
  bits[5] = 2;
  const ActivationQuantConfig cfg = quant::make_quant_config(g, ranges, bits);

  std::stringstream ss;
  write_quant_config(cfg, ss);
  const ActivationQuantConfig back = read_quant_config(ss);
  ASSERT_EQ(back.params.size(), cfg.params.size());
  for (std::size_t i = 0; i < cfg.params.size(); ++i) {
    EXPECT_EQ(back.params[i], cfg.params[i]) << i;
  }
}

TEST(Serialize, QuantConfigRejectsGraphFile) {
  const Graph g = sample_graph();
  std::stringstream ss;
  write_graph(g, ss);
  EXPECT_THROW(read_quant_config(ss), std::invalid_argument);
}

TEST(Serialize, DeployedPackageReproducesQuantizedInference) {
  // The full "converter" story: save model + config, reload both, get the
  // exact same integer outputs.
  const Graph g = sample_graph();
  const std::vector<Tensor> calib{random_input(g.shape(0), 6)};
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto cfg = quant::make_quant_config(g, ranges, uniform_bits(g, 8));

  std::stringstream gs;
  std::stringstream cs;
  write_graph(g, gs);
  write_quant_config(cfg, cs);
  const Graph g2 = read_graph(gs);
  const ActivationQuantConfig cfg2 = read_quant_config(cs);

  const Tensor in = random_input(g.shape(0), 7);
  const QTensor a = CompiledQuantModel(g, cfg).run(in);
  const QTensor b = CompiledQuantModel(g2, cfg2).run(in);
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]);
  }
}

}  // namespace
}  // namespace qmcu::nn
