// Tests for the layer-based models (nn/compiled_model.h): float reference,
// incremental re-execution, and the integer model against calibration.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "nn/compiled_model.h"
#include "nn/memory_planner.h"
#include "nn/rng.h"
#include "models/weights.h"
#include "quant/calibration.h"

namespace qmcu::nn {
namespace {

Tensor random_input(TensorShape s, std::uint64_t seed) {
  Tensor t(s);
  Rng rng(seed);
  for (float& v : t.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

// A small but representative net: conv stem, residual block, pooling, head.
Graph small_net() {
  Graph g("small");
  const int in = g.add_input(TensorShape{16, 16, 3});
  const int stem = g.add_conv2d(in, 8, 3, 2, 1, Activation::ReLU6, "stem");
  const int a = g.add_conv2d(stem, 8, 3, 1, 1, Activation::ReLU, "a");
  const int b = g.add_conv2d(a, 8, 3, 1, 1, Activation::None, "b");
  const int add = g.add_residual_add(stem, b, Activation::ReLU, "res");
  const int dw = g.add_depthwise_conv2d(add, 3, 2, 1, Activation::ReLU6);
  const int gap = g.add_global_avg_pool(dw);
  const int fc = g.add_fully_connected(gap, 10, Activation::None, "logits");
  g.add_softmax(fc);
  models::init_parameters(g, 42);
  return g;
}

TEST(CompiledModel, RunAllProducesEveryFeatureMap) {
  const Graph g = small_net();
  const CompiledModel exec(g);
  const auto fms = exec.run_all(random_input(g.shape(0), 1));
  ASSERT_EQ(static_cast<int>(fms.size()), g.size());
  for (int i = 0; i < g.size(); ++i) {
    EXPECT_EQ(fms[static_cast<std::size_t>(i)].shape(), g.shape(i))
        << "layer " << i;
  }
}

TEST(CompiledModel, RunReturnsFinalLayer) {
  const Graph g = small_net();
  const CompiledModel exec(g);
  const Tensor in = random_input(g.shape(0), 2);
  const Tensor out = exec.run(in);
  const auto fms = exec.run_all(in);
  const Tensor& last = fms.back();
  ASSERT_EQ(out.shape(), last.shape());
  for (std::size_t i = 0; i < out.data().size(); ++i) {
    EXPECT_FLOAT_EQ(out.data()[i], last.data()[i]);
  }
}

TEST(CompiledModel, DeterministicAcrossRuns) {
  const Graph g = small_net();
  const CompiledModel exec(g);
  const Tensor in = random_input(g.shape(0), 3);
  const Tensor a = exec.run(in);
  const Tensor b = exec.run(in);
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
  }
}

TEST(CompiledModel, RejectsWrongInputShape) {
  const Graph g = small_net();
  const CompiledModel exec(g);
  EXPECT_THROW(exec.run(Tensor(TensorShape{8, 8, 3})), std::invalid_argument);
}

TEST(CompiledModel, RunFromUnchangedMemoIsIdentity) {
  const Graph g = small_net();
  const CompiledModel exec(g);
  const Tensor in = random_input(g.shape(0), 4);
  const auto base = exec.run_all(in);
  // "Change" layer 1 to its own value: downstream recompute must reproduce
  // the same feature maps bit for bit.
  const auto redone = exec.run_from(base, 1);
  for (int i = 0; i < g.size(); ++i) {
    const auto& x = base[static_cast<std::size_t>(i)].data();
    const auto& y = redone[static_cast<std::size_t>(i)].data();
    for (std::size_t j = 0; j < x.size(); ++j) {
      EXPECT_FLOAT_EQ(x[j], y[j]) << "layer " << i;
    }
  }
}

TEST(CompiledModel, RunFromMatchesFullRerunAfterPerturbation) {
  const Graph g = small_net();
  const CompiledModel exec(g);
  const Tensor in = random_input(g.shape(0), 5);
  auto memo = exec.run_all(in);

  // Perturb the stem output and compare incremental vs full recompute.
  const int target = 1;
  Tensor perturbed = memo[static_cast<std::size_t>(target)];
  for (float& v : perturbed.data()) v *= 1.5f;
  memo[static_cast<std::size_t>(target)] = perturbed;
  const auto incremental = exec.run_from(memo, target);

  // Full recompute with the same perturbation injected manually.
  std::vector<Tensor> manual(static_cast<std::size_t>(g.size()));
  manual[0] = in;
  manual[1] = perturbed;
  ops::KernelBackend backend;
  for (int id = 2; id < g.size(); ++id) {
    Tensor& out = manual[static_cast<std::size_t>(id)] = Tensor(g.shape(id));
    run_layer_f32_into(g, id, manual, backend, out);
  }
  for (int i = 0; i < g.size(); ++i) {
    const auto& x = incremental[static_cast<std::size_t>(i)].data();
    const auto& y = manual[static_cast<std::size_t>(i)].data();
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t j = 0; j < x.size(); ++j) {
      EXPECT_FLOAT_EQ(x[j], y[j]) << "layer " << i;
    }
  }
}

TEST(CompiledQuantModel, Int8TracksFloatWithinTolerance) {
  const Graph g = small_net();
  const std::vector<Tensor> calib{random_input(g.shape(0), 6),
                                  random_input(g.shape(0), 7)};
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto cfg = quant::make_quant_config(g, ranges, uniform_bits(g, 8));
  const CompiledQuantModel qexec(g, cfg);
  const CompiledModel exec(g);

  const Tensor in = random_input(g.shape(0), 8);
  const Tensor ref = exec.run(in);
  const QTensor qout = qexec.run(in);
  const Tensor deq = dequantize(qout);
  // Softmax output in [0, 1]; int8 end-to-end drift stays small.
  for (std::size_t i = 0; i < deq.data().size(); ++i) {
    EXPECT_NEAR(deq.data()[i], ref.data()[i], 0.1f) << "class " << i;
  }
}

TEST(CompiledQuantModel, LowerBitsDegradeOutputMonotonically) {
  const Graph g = small_net();
  const std::vector<Tensor> calib{random_input(g.shape(0), 9)};
  const auto ranges = quant::calibrate_ranges(g, calib);
  const CompiledModel exec(g);
  const Tensor in = random_input(g.shape(0), 10);
  const Tensor ref = exec.run(in);

  const auto error_at = [&](int bits) {
    const auto cfg =
        quant::make_quant_config(g, ranges, uniform_bits(g, bits));
    const CompiledQuantModel qexec(g, cfg);
    const Tensor out = dequantize(qexec.run(in));
    double err = 0.0;
    for (std::size_t i = 0; i < out.data().size(); ++i) {
      err += std::abs(out.data()[i] - ref.data()[i]);
    }
    return err;
  };
  EXPECT_LE(error_at(8), error_at(4) + 1e-9);
  EXPECT_LE(error_at(4), error_at(2) + 1e-9);
}

TEST(CompiledQuantModel, RequiresConfigCoveringAllLayers) {
  const Graph g = small_net();
  ActivationQuantConfig cfg;  // empty
  EXPECT_THROW(CompiledQuantModel(g, cfg), std::invalid_argument);
}

TEST(Calibration, RangesCoverObservedValues) {
  const Graph g = small_net();
  const std::vector<Tensor> calib{random_input(g.shape(0), 11)};
  const auto ranges = quant::calibrate_ranges(g, calib);
  const CompiledModel exec(g);
  const auto fms = exec.run_all(calib[0]);
  for (int i = 0; i < g.size(); ++i) {
    const auto [lo, hi] = tensor_min_max(fms[static_cast<std::size_t>(i)]);
    EXPECT_LE(ranges[static_cast<std::size_t>(i)].min_v, lo + 1e-6f);
    EXPECT_GE(ranges[static_cast<std::size_t>(i)].max_v, hi - 1e-6f);
  }
}

TEST(Calibration, MultipleImagesWidenRanges) {
  const Graph g = small_net();
  const std::vector<Tensor> one{random_input(g.shape(0), 12)};
  const std::vector<Tensor> two{random_input(g.shape(0), 12),
                                random_input(g.shape(0), 13)};
  const auto r1 = quant::calibrate_ranges(g, one);
  const auto r2 = quant::calibrate_ranges(g, two);
  for (int i = 0; i < g.size(); ++i) {
    EXPECT_LE(r2[static_cast<std::size_t>(i)].min_v,
              r1[static_cast<std::size_t>(i)].min_v + 1e-6f);
    EXPECT_GE(r2[static_cast<std::size_t>(i)].max_v,
              r1[static_cast<std::size_t>(i)].max_v - 1e-6f);
  }
}

// A NaN range would reach every QuantParams built from it. The batch is
// checked before any forward pass, and the error names the bad image.
TEST(Calibration, RejectsNonFiniteImage) {
  const Graph g = small_net();
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    std::vector<Tensor> calib{random_input(g.shape(0), 14),
                              random_input(g.shape(0), 15)};
    calib[1].at(3, 5, 1) = bad;
    try {
      (void)quant::calibrate_ranges(g, calib);
      ADD_FAILURE() << "calibrate_ranges accepted an image holding " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("calibration image 1"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace qmcu::nn
