// camera.h — seeded synthetic camera streams for the stream_camera
// workload.
//
// Each stream shows a static textured background with one rigid textured
// object covering about 30 % of the frame. The object moves by a few
// pixels on every odd frame and holds still on every even frame (object
// motion at half the camera rate), and every 48 frames the scene cuts to a
// new background and object (a full redraw). A stream is periodic over
// four scenes, so its distinct frames can be checked against a full
// recompute before the clock starts; the work a frame costs depends on
// where the seeded object sits on the patch grid, and four scenes average
// it.
#pragma once

#include <cstdint>
#include <vector>

#include "data/synthetic.h"
#include "nn/tensor.h"

namespace perfbench {

inline constexpr int kCameraResolution = 128;
inline constexpr int kFramesPerScene = 48;

struct CameraStream {
  std::vector<qmcu::nn::Tensor> distinct;  // every distinct frame
  std::vector<int> frame;  // period position -> index into `distinct`

  [[nodiscard]] int period() const { return static_cast<int>(frame.size()); }
  [[nodiscard]] const qmcu::nn::Tensor& at(std::int64_t n) const {
    return distinct[static_cast<std::size_t>(frame[static_cast<std::size_t>(
        n % static_cast<std::int64_t>(frame.size()))])];
  }
};

// Stream `stream` of the workload seeded with `seed` (VOC-like images).
// Tests pass a smaller resolution and scene length.
CameraStream make_camera_stream(std::uint64_t seed, int stream,
                                int resolution = kCameraResolution,
                                int frames_per_scene = kFramesPerScene);

// Mean share of pixels that differ between consecutive frames over one
// period, wrap-around included.
double changed_pixel_fraction(const CameraStream& s);

}  // namespace perfbench
