// export_deployment — the converter workflow: quantize a model offline,
// save the deployment package (model + quantization config) to disk, then
// reload it in a fresh "runtime" and verify the integer outputs match.
//
// Usage: export_deployment [output_dir]   (default /tmp)
#include <cstdio>
#include <string>

#include "data/synthetic.h"
#include "models/zoo.h"
#include "nn/compiled_model.h"
#include "nn/memory_planner.h"
#include "nn/serialize.h"
#include "quant/calibration.h"

int main(int argc, char** argv) {
  using namespace qmcu;
  const std::string dir = argc > 1 ? argv[1] : "/tmp";
  const std::string model_path = dir + "/mobilenetv2_w025.qmcu";
  const std::string config_path = dir + "/mobilenetv2_w025.qcfg";

  // --- converter side -------------------------------------------------------
  models::ModelConfig mcfg;
  mcfg.width_multiplier = 0.25f;
  mcfg.resolution = 64;
  mcfg.num_classes = 10;
  const nn::Graph model = models::make_mobilenet_v2(mcfg);

  data::DataConfig dcfg;
  dcfg.resolution = mcfg.resolution;
  const data::SyntheticDataset dataset(dcfg);
  const std::vector<nn::Tensor> calib = dataset.batch(0, 3);
  const auto ranges = quant::calibrate_ranges(model, calib);
  const auto qcfg =
      quant::make_quant_config(model, ranges, nn::uniform_bits(model, 8));

  nn::save_graph(model, model_path);
  nn::save_quant_config(qcfg, config_path);
  std::printf("exported %s (%d layers, %.1f MMACs) + %s\n",
              model_path.c_str(), model.size(),
              static_cast<double>(model.total_macs()) / 1e6,
              config_path.c_str());

  // --- runtime side ---------------------------------------------------------
  const nn::Graph loaded = nn::load_graph(model_path);
  const nn::ActivationQuantConfig loaded_cfg =
      nn::load_quant_config(config_path);
  const nn::CompiledQuantModel runtime(loaded, loaded_cfg);

  const nn::Tensor image = dataset.image(99);
  const nn::QTensor out_runtime = runtime.run(image);
  const nn::QTensor out_converter =
      nn::CompiledQuantModel(model, qcfg).run(image);

  bool identical = out_runtime.data().size() == out_converter.data().size();
  for (std::size_t i = 0; identical && i < out_runtime.data().size(); ++i) {
    identical = out_runtime.data()[i] == out_converter.data()[i];
  }
  std::printf("reloaded package inference: %s\n",
              identical ? "bit-identical to the converter's outputs"
                        : "MISMATCH (bug!)");
  return identical ? 0 : 1;
}
