#include "camera.h"

#include <algorithm>
#include <cmath>

#include "nn/rng.h"
#include "patch/streaming_diff.h"

namespace perfbench {

using qmcu::nn::Tensor;

namespace {

constexpr int kScenes = 4;
constexpr double kObjectArea = 0.30;  // share of the frame the object covers
constexpr int kMaxStep = 4;           // per-move displacement bound, pixels

Tensor render(const Tensor& background, const Tensor& texture, int y0, int x0,
              int side) {
  Tensor frame = background;
  const int channels = frame.shape().c;
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) {
      for (int c = 0; c < channels; ++c) {
        frame.at(y0 + y, x0 + x, c) = texture.at(y, x, c);
      }
    }
  }
  return frame;
}

}  // namespace

CameraStream make_camera_stream(std::uint64_t seed, int stream,
                                int resolution, int frames_per_scene) {
  qmcu::data::DataConfig dc;
  dc.kind = qmcu::data::DatasetKind::PascalVocLike;
  dc.resolution = resolution;
  dc.seed = seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(stream);
  const qmcu::data::SyntheticDataset ds(dc);
  qmcu::nn::Rng rng(dc.seed ^ 0xca3e7aull);

  const int res = resolution;
  const int side = std::clamp(
      static_cast<int>(std::lround(std::sqrt(kObjectArea) * res)), 1, res);
  CameraStream out;
  for (int scene = 0; scene < kScenes; ++scene) {
    // Scene cut: a new background and a new object at a random place.
    const Tensor background = ds.image(2 * scene);
    const Tensor texture = ds.image(2 * scene + 1);
    int y0 = static_cast<int>(rng.uniform(0, res - side + 1));
    int x0 = static_cast<int>(rng.uniform(0, res - side + 1));
    for (int f = 0; f < frames_per_scene; ++f) {
      if (f > 0 && f % 2 == 0) {
        out.frame.push_back(out.frame.back());  // hold: the same bytes
        continue;
      }
      if (f > 0) {
        // Every odd frame moves the object: a step that the border would
        // cancel is taken the other way.
        int dy = 0, dx = 0;
        while (dy == 0 && dx == 0) {
          dy = static_cast<int>(
              std::floor(rng.uniform(-kMaxStep, kMaxStep + 1)));
          dx = static_cast<int>(
              std::floor(rng.uniform(-kMaxStep, kMaxStep + 1)));
        }
        const auto step = [&](int pos, int d) {
          const int moved = pos + d;
          return moved < 0 || moved > res - side
                     ? std::clamp(pos - d, 0, res - side)
                     : moved;
        };
        y0 = step(y0, dy);
        x0 = step(x0, dx);
      }
      out.distinct.push_back(render(background, texture, y0, x0, side));
      out.frame.push_back(static_cast<int>(out.distinct.size()) - 1);
    }
  }
  return out;
}

double changed_pixel_fraction(const CameraStream& s) {
  double total = 0.0;
  const int n = s.period();
  for (int i = 0; i < n; ++i) {
    const Tensor& prev = s.at(i == 0 ? n - 1 : i - 1);
    const Tensor& cur = s.at(i);
    total += qmcu::patch::diff_frames(prev, cur).changed_fraction(cur.shape());
  }
  return n == 0 ? 0.0 : total / n;
}

}  // namespace perfbench
