// streaming_session.h — per-stream front-end over the patch model's
// temporal-reuse runtime.
//
// A StreamingSession owns everything one frame stream needs: the previous
// frame (diff baseline), the model's StreamState (retained arena + dirty
// mask), the last output, and an optional ActivationStatsTracker fed from
// the model's stats hook. Per frame it
//
//   1. diffs the new frame against the previous one (patch::diff_frames);
//      a byte-identical frame returns the cached output without touching
//      the model at all;
//   2. maps the diff to a per-branch dirty mask (patch::dirty_branches —
//      exact, or tolerance-based when StreamingConfig::max_region_delta is
//      set);
//   3. hands the mask and the diff's changed row spans to
//      Model::run_streaming, which re-quantizes only the changed input
//      pixels and recomputes only dirty branches and the tail bands their
//      changes reach;
//   4. folds the frame's skip counters and drift score into
//      StreamingStats.
//
// Exact mode (max_region_delta == 0) is bit-identical to running the model
// in full on every frame, for every worker count — the dirty mask is
// conservative and the runtime skips only byte-identical work. Tolerance
// mode trades that guarantee for more skips.
//
// The session is bound to whichever model the first next() call sees;
// handing it a different model (serving hot swap) resets the stream state
// and re-primes on that frame. Not thread-safe — serving pins one session
// per lane and runs frames of a stream in lane FIFO order.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "nn/runtime/worker_pool.h"
#include "nn/streaming/activation_stats.h"
#include "nn/tensor.h"
#include "patch/compiled_patch_model.h"
#include "patch/streaming_diff.h"

namespace qmcu::nn::streaming {

struct StreamingConfig {
  // 0 = exact mode (skip only byte-identical branch crops, bit-identical
  // output); > 0 = a branch whose mean absolute crop delta is below this
  // still counts as clean (approximate output, more skips).
  float max_region_delta = 0.0f;
  // Feed an ActivationStatsTracker from the model's stats hook (ignored by
  // models without one).
  bool track_stats = false;
  ActivationStatsConfig stats;
};

struct StreamingStats {
  std::int64_t frames = 0;
  std::int64_t unchanged_frames = 0;  // byte-identical, model untouched
  std::int64_t branches_recomputed = 0;
  std::int64_t branches_skipped = 0;
  std::int64_t bands_run = 0;
  std::int64_t bands_skipped = 0;
  std::int64_t tail_rest_runs = 0;  // frames whose non-banded tail ran
  double drift_score = 0.0;
  bool needs_recalibration = false;

  [[nodiscard]] double branch_skip_ratio() const {
    const std::int64_t total = branches_recomputed + branches_skipped;
    return total == 0 ? 0.0
                      : static_cast<double>(branches_skipped) /
                            static_cast<double>(total);
  }
  [[nodiscard]] double band_skip_ratio() const {
    const std::int64_t total = bands_run + bands_skipped;
    return total == 0 ? 0.0
                      : static_cast<double>(bands_skipped) /
                            static_cast<double>(total);
  }
};

// Model is patch::CompiledPatchQuantModel or a wrapper around one —
// anything exposing plan()/pipelined_tail()/run_streaming().
template <class Model>
class StreamingSession {
 public:
  using Output = decltype(std::declval<const Model&>().run(
      std::declval<const nn::Tensor&>()));

  explicit StreamingSession(StreamingConfig cfg = {})
      : cfg_(cfg), tracker_(cfg.stats) {}

  // Runs one frame through `model`, reusing whatever the previous frame
  // already computed. The returned tensor owns its data (safe to keep
  // across frames).
  Output next(const Model& model, const nn::Tensor& frame,
              nn::WorkerPool* pool = nullptr) {
    if (bound_ != &model) {
      // First use, or the serving layer hot-swapped the lane's model:
      // retained bytes belong to the old model's plan, so start over.
      bound_ = &model;
      state_.reset();
      prev_.reset();
      last_.reset();
    }
    const patch::PatchPlan& plan = model.plan();
    const std::int64_t total_branches =
        static_cast<std::int64_t>(plan.branches.size());
    const std::int64_t total_bands = band_count(model);

    if (prev_.has_value() && state_.is_primed()) {
      const patch::FrameDiff diff = patch::diff_frames(*prev_, frame);
      if (diff.identical()) {
        // Nothing changed at all: the retained output is the answer.
        ++stats_.frames;
        ++stats_.unchanged_frames;
        stats_.branches_skipped += total_branches;
        stats_.bands_skipped += total_bands;
        return *last_;
      }
      state_.branch_dirty =
          cfg_.max_region_delta > 0.0f
              ? patch::dirty_branches(*prev_, frame, plan,
                                      cfg_.max_region_delta)
              : patch::dirty_branches(diff, plan, frame.shape());
      state_.changed_rows = diff.row_spans;
    }

    constexpr bool kHasStatsHook = requires(const Model& m) {
      m.set_stats_hook(
          std::function<void(int, const nn::QTensor&)>{});
    };
    Output out = [&] {
      if constexpr (kHasStatsHook) {
        if (cfg_.track_stats) {
          model.set_stats_hook([this](int id, const nn::QTensor& t) {
            tracker_.observe(id, t);
          });
          // Unhooked on every exit, a throwing frame included: a hook left
          // on the lane's shared model would feed this stream's tracker
          // from other requests, and dangle once the session is gone.
          struct Unhook {
            const Model& m;
            ~Unhook() { m.set_stats_hook(nullptr); }
          } unhook{model};
          return model.run_streaming(frame, pool, state_);
        }
      }
      return model.run_streaming(frame, pool, state_);
    }();

    ++stats_.frames;
    const std::int64_t ran = state_.frame_branches_run();
    stats_.branches_recomputed += ran;
    stats_.branches_skipped += total_branches - ran;
    const std::int64_t bands = state_.frame_bands_run();
    stats_.bands_run += bands;
    stats_.bands_skipped += total_bands - bands;
    stats_.tail_rest_runs += state_.frame_changed_output() ? 1 : 0;
    if (cfg_.track_stats) {
      stats_.drift_score = tracker_.drift_score();
      stats_.needs_recalibration = tracker_.needs_recalibration();
    }

    prev_.emplace(frame);       // deep copies: the caller keeps its frame,
    last_.emplace(out);         // and `out` views the retained arena
    return *last_;
  }

  // Scene cut: forget the previous frame and retained state; the next
  // frame recomputes in full. Stats and drift tracking are kept.
  void reset() {
    state_.reset();
    prev_.reset();
    last_.reset();
  }

  [[nodiscard]] const StreamingStats& stats() const { return stats_; }
  [[nodiscard]] const ActivationStatsTracker& tracker() const {
    return tracker_;
  }
  [[nodiscard]] ActivationStatsTracker& tracker() { return tracker_; }
  [[nodiscard]] const patch::StreamState& state() const { return state_; }
  [[nodiscard]] const StreamingConfig& config() const { return cfg_; }

 private:
  static std::int64_t band_count(const Model& model) {
    std::int64_t total = 0;
    for (const patch::PipelinedTailLayer& pl : model.pipelined_tail()) {
      total += static_cast<std::int64_t>(pl.bands.size());
    }
    return total;
  }

  StreamingConfig cfg_;
  StreamingStats stats_;
  ActivationStatsTracker tracker_;
  patch::StreamState state_;
  const Model* bound_ = nullptr;
  std::optional<nn::Tensor> prev_;
  std::optional<Output> last_;
};

}  // namespace qmcu::nn::streaming
