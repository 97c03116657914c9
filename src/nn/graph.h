// graph.h — a small DAG IR for convolutional networks.
//
// Layers are appended in topological order (an input must already exist when
// it is referenced), which keeps execution, liveness analysis and
// receptive-field propagation simple and allocation-free. Shapes are
// inferred eagerly on insertion so misconfigured layers fail fast at graph
// construction time rather than mid-inference.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "nn/check.h"
#include "nn/shape.h"
#include "nn/tensor.h"

namespace qmcu::nn {

enum class OpKind {
  Input,
  Conv2D,
  DepthwiseConv2D,
  FullyConnected,
  MaxPool,
  AvgPool,
  GlobalAvgPool,
  Add,      // element-wise residual add
  Concat,   // channel concatenation
  Softmax,
};

// Activation fused into the producing layer (TFLite convention).
enum class Activation { None, ReLU, ReLU6 };

constexpr std::string_view to_string(OpKind k) {
  switch (k) {
    case OpKind::Input: return "input";
    case OpKind::Conv2D: return "conv2d";
    case OpKind::DepthwiseConv2D: return "dwconv2d";
    case OpKind::FullyConnected: return "fc";
    case OpKind::MaxPool: return "maxpool";
    case OpKind::AvgPool: return "avgpool";
    case OpKind::GlobalAvgPool: return "gavgpool";
    case OpKind::Add: return "add";
    case OpKind::Concat: return "concat";
    case OpKind::Softmax: return "softmax";
  }
  return "?";
}

// True for layers whose cost is dominated by multiply-accumulates; these are
// the layers that contribute BitOPs (Eq. 2 of the paper).
constexpr bool is_mac_op(OpKind k) {
  return k == OpKind::Conv2D || k == OpKind::DepthwiseConv2D ||
         k == OpKind::FullyConnected;
}

// True for layers with a spatial kernel window (participate in receptive
// field propagation).
constexpr bool is_windowed_op(OpKind k) {
  return k == OpKind::Conv2D || k == OpKind::DepthwiseConv2D ||
         k == OpKind::MaxPool || k == OpKind::AvgPool;
}

// True for pooling layers, which never requantize: their output carries the
// producer's QuantParams (TFLite contract), a rule QuantizedParameters::build,
// the compiled models and the patch engine all share.
constexpr bool is_pool_op(OpKind k) {
  return k == OpKind::MaxPool || k == OpKind::AvgPool ||
         k == OpKind::GlobalAvgPool;
}

struct Layer {
  OpKind kind = OpKind::Input;
  std::string name;
  std::vector<int> inputs;  // producer layer ids, already in the graph

  // Spatial window parameters (conv / pool); identity for other ops.
  int kernel_h = 1, kernel_w = 1;
  int stride_h = 1, stride_w = 1;
  int pad_h = 0, pad_w = 0;  // symmetric zero padding

  int out_channels = 0;  // Conv2D / FullyConnected
  Activation act = Activation::None;
  bool has_bias = true;
};

class Graph {
 public:
  explicit Graph(std::string name) : name_(std::move(name)) {}

  // --- construction -------------------------------------------------------
  int add_input(TensorShape shape);
  int add_conv2d(int input, int out_channels, int kernel, int stride, int pad,
                 Activation act, std::string name = "");
  int add_depthwise_conv2d(int input, int kernel, int stride, int pad,
                           Activation act, std::string name = "");
  int add_fully_connected(int input, int out_features, Activation act,
                          std::string name = "");
  int add_max_pool(int input, int kernel, int stride, int pad,
                   std::string name = "");
  int add_avg_pool(int input, int kernel, int stride, int pad,
                   std::string name = "");
  int add_global_avg_pool(int input, std::string name = "");
  int add_residual_add(int lhs, int rhs, Activation act,
                       std::string name = "");
  int add_concat(std::span<const int> inputs, std::string name = "");
  int add_softmax(int input, std::string name = "");

  // Attach trained (or synthetic) parameters to a MAC layer. Layouts:
  //   Conv2D          [out_c][kh][kw][in_c]
  //   DepthwiseConv2D [kh][kw][c]
  //   FullyConnected  [out][in]  (input flattened NHWC row-major)
  void set_parameters(int id, std::vector<float> weights,
                      std::vector<float> bias);

  // Attach parameters as *views* into caller-owned storage (the plan-
  // artifact loader points these straight into a read-only mmap, so a fleet
  // of processes shares one physical copy). Same layout and validation as
  // set_parameters; the backing memory must outlive the graph. A view takes
  // precedence over owned parameters for the same layer.
  void set_parameter_views(int id, std::span<const float> weights,
                           std::span<const float> bias);

  // --- inspection ---------------------------------------------------------
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int size() const { return static_cast<int>(layers_.size()); }
  [[nodiscard]] const Layer& layer(int id) const;
  [[nodiscard]] const TensorShape& shape(int id) const;
  [[nodiscard]] int output() const;
  [[nodiscard]] std::vector<int> inputs() const;  // all Input layer ids

  // Layers that read the output of `id` (computed once, cached).
  [[nodiscard]] const std::vector<int>& consumers(int id) const;

  [[nodiscard]] std::span<const float> weights(int id) const;
  [[nodiscard]] std::span<const float> bias(int id) const;
  [[nodiscard]] bool has_parameters(int id) const;

  // Expected weight element count for a MAC layer (0 otherwise).
  [[nodiscard]] std::int64_t weight_count(int id) const;

  // Multiply-accumulate count of layer `id` (0 for non-MAC layers).
  [[nodiscard]] std::int64_t macs(int id) const;
  [[nodiscard]] std::int64_t total_macs() const;

  // Per-element (non-MAC) arithmetic ops of layer `id`: pooling window
  // reductions, residual adds, softmax exponentials.
  [[nodiscard]] std::int64_t element_ops(int id) const;

 private:
  int append(Layer layer, TensorShape out_shape);
  [[nodiscard]] TensorShape windowed_out_shape(const TensorShape& in,
                                               const Layer& l) const;

  std::string name_;
  std::vector<Layer> layers_;
  std::vector<TensorShape> shapes_;
  std::vector<std::vector<float>> weights_;
  std::vector<std::vector<float>> biases_;
  // Non-owning parameter views (set_parameter_views); lazily sized, checked
  // before the owned vectors.
  std::vector<std::span<const float>> weight_views_;
  std::vector<std::span<const float>> bias_views_;
  mutable std::vector<std::vector<int>> consumers_;  // lazily built cache
  mutable bool consumers_valid_ = false;
};

}  // namespace qmcu::nn
