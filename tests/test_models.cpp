// Tests for the model zoo (models/zoo.h): every architecture must build,
// shape-infer, carry parameters and execute end to end at small scale.
#include <gtest/gtest.h>

#include "models/blocks.h"
#include "models/weights.h"
#include "models/zoo.h"
#include "nn/compiled_model.h"
#include "nn/rng.h"

namespace qmcu::models {
namespace {

ModelConfig tiny_config() {
  ModelConfig cfg;
  cfg.width_multiplier = 0.25f;
  cfg.resolution = 64;
  cfg.num_classes = 10;
  return cfg;
}

class EveryModel : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryModel, BuildsWithParametersOnEveryMacLayer) {
  const nn::Graph g = make_model(GetParam(), tiny_config());
  EXPECT_GT(g.size(), 10);
  for (int i = 0; i < g.size(); ++i) {
    if (nn::is_mac_op(g.layer(i).kind)) {
      EXPECT_TRUE(g.has_parameters(i)) << g.layer(i).name;
    }
  }
}

TEST_P(EveryModel, OutputIsClassDistribution) {
  const ModelConfig cfg = tiny_config();
  const nn::Graph g = make_model(GetParam(), cfg);
  EXPECT_EQ(g.shape(g.output()), (nn::TensorShape{1, 1, cfg.num_classes}));
}

TEST_P(EveryModel, ExecutesAndProducesNormalisedProbabilities) {
  const nn::Graph g = make_model(GetParam(), tiny_config());
  const nn::CompiledModel exec(g);
  nn::Tensor in(g.shape(0));
  nn::Rng rng(5);
  for (float& v : in.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  const nn::Tensor out = exec.run(in);
  float sum = 0.0f;
  for (float v : out.data()) {
    EXPECT_GE(v, 0.0f);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-4f);
}

TEST_P(EveryModel, WeightsAreDeterministicPerSeed) {
  ModelConfig cfg = tiny_config();
  cfg.seed = 777;
  const nn::Graph a = make_model(GetParam(), cfg);
  const nn::Graph b = make_model(GetParam(), cfg);
  for (int i = 0; i < a.size(); ++i) {
    const auto wa = a.weights(i);
    const auto wb = b.weights(i);
    ASSERT_EQ(wa.size(), wb.size());
    for (std::size_t j = 0; j < wa.size(); ++j) {
      ASSERT_FLOAT_EQ(wa[j], wb[j]) << "layer " << i;
    }
  }
}

TEST_P(EveryModel, DifferentSeedsGiveDifferentWeights) {
  ModelConfig a_cfg = tiny_config();
  ModelConfig b_cfg = tiny_config();
  a_cfg.seed = 1;
  b_cfg.seed = 2;
  const nn::Graph a = make_model(GetParam(), a_cfg);
  const nn::Graph b = make_model(GetParam(), b_cfg);
  bool any_diff = false;
  for (int i = 0; i < a.size() && !any_diff; ++i) {
    const auto wa = a.weights(i);
    const auto wb = b.weights(i);
    for (std::size_t j = 0; j < wa.size(); ++j) {
      if (wa[j] != wb[j]) {
        any_diff = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, EveryModel,
    ::testing::Values("mobilenetv2", "mcunet", "mnasnet", "fbnet_a",
                      "ofa_cpu", "resnet18", "vgg16", "squeezenet",
                      "inceptionv3"));

TEST(ModelZoo, RegistryListsNineModels) {
  EXPECT_EQ(model_names().size(), 9u);
}

TEST(ModelZoo, UnknownNameRejected) {
  EXPECT_THROW(make_model("alexnet", tiny_config()), std::invalid_argument);
}

TEST(ModelZoo, MobileNetV2FullSizeMacsMatchLiterature) {
  ModelConfig cfg;
  cfg.init_weights = false;  // structure only; keep the test fast
  const nn::Graph g = make_mobilenet_v2(cfg);
  // Sandler et al. report ~300 MMACs for width 1.0 at 224x224.
  EXPECT_GT(g.total_macs(), 250'000'000);
  EXPECT_LT(g.total_macs(), 360'000'000);
}

TEST(ModelZoo, WidthMultiplierScalesMacsSuperlinearly) {
  ModelConfig big;
  big.init_weights = false;
  ModelConfig small = big;
  small.width_multiplier = 0.5f;
  const auto macs_big = make_mobilenet_v2(big).total_macs();
  const auto macs_small = make_mobilenet_v2(small).total_macs();
  EXPECT_LT(macs_small, macs_big / 2);  // roughly quadratic in width
}

TEST(ModelZoo, ResolutionScalesMacsQuadratically) {
  ModelConfig hi;
  hi.init_weights = false;
  ModelConfig lo = hi;
  lo.resolution = 112;
  const auto macs_hi = make_mobilenet_v2(hi).total_macs();
  const auto macs_lo = make_mobilenet_v2(lo).total_macs();
  const double ratio =
      static_cast<double>(macs_hi) / static_cast<double>(macs_lo);
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 5.0);
}

TEST(ModelZoo, ScaleChannelsRoundsToMultipleOfEight) {
  EXPECT_EQ(scale_channels(32, 1.0f), 32);
  EXPECT_EQ(scale_channels(32, 0.35f), 8);   // 11.2 -> 8
  EXPECT_EQ(scale_channels(24, 0.5f), 16);   // 12 -> 16 (round-to-nearest)
  EXPECT_EQ(scale_channels(8, 0.1f), 8);     // floor at 8
}

TEST(ModelZoo, SqueezeNetUsesConcatFireModules) {
  const nn::Graph g = make_squeezenet(tiny_config());
  int concats = 0;
  for (int i = 0; i < g.size(); ++i) {
    if (g.layer(i).kind == nn::OpKind::Concat) ++concats;
  }
  EXPECT_EQ(concats, 8);  // eight fire modules
}

TEST(ModelZoo, ResNet18HasResidualAdds) {
  const nn::Graph g = make_resnet18(tiny_config());
  int adds = 0;
  for (int i = 0; i < g.size(); ++i) {
    if (g.layer(i).kind == nn::OpKind::Add) ++adds;
  }
  EXPECT_EQ(adds, 8);  // two basic blocks per stage, four stages
}

TEST(ModelZoo, InceptionHasFourWayBranches) {
  const nn::Graph g = make_inception_v3(tiny_config());
  bool has_4way = false;
  for (int i = 0; i < g.size(); ++i) {
    if (g.layer(i).kind == nn::OpKind::Concat &&
        g.layer(i).inputs.size() == 4) {
      has_4way = true;
    }
  }
  EXPECT_TRUE(has_4way);
}

TEST(WeightInit, HeNormalVarianceMatchesFanIn) {
  nn::Graph g("t");
  const int in = g.add_input(nn::TensorShape{8, 8, 64});
  g.add_conv2d(in, 256, 3, 1, 1, nn::Activation::None);
  init_parameters(g, 9);
  const auto w = g.weights(1);
  double var = 0.0;
  for (float v : w) var += static_cast<double>(v) * v;
  var /= static_cast<double>(w.size());
  const double expected = 2.0 / (3.0 * 3.0 * 64.0);
  EXPECT_NEAR(var, expected, expected * 0.1);
}

TEST(WeightInit, SkipsLayersThatAlreadyHaveParameters) {
  nn::Graph g("t");
  const int in = g.add_input(nn::TensorShape{4, 4, 1});
  const int c = g.add_conv2d(in, 1, 1, 1, 0, nn::Activation::None);
  g.set_parameters(c, {42.0f}, {0.0f});
  init_parameters(g, 1);
  EXPECT_FLOAT_EQ(g.weights(c)[0], 42.0f);
}

}  // namespace
}  // namespace qmcu::models
