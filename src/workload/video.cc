#include "src/workload/video.h"

#include "src/util/logging.h"

namespace thinc {
namespace {

// MPEG-1 decode cost per frame at reference speed (the player's work).
constexpr double kDecodeCostUs = 1500;

}  // namespace

VideoSource::VideoSource(EventLoop* loop, DrawingApi* api, CpuAccount* app_cpu,
                         VideoSourceOptions options)
    : loop_(loop), api_(api), app_cpu_(app_cpu), options_(options) {
  THINC_CHECK(options_.fps > 0);
  frame_interval_ = static_cast<SimTime>(kSecond / options_.fps);
  total_frames_ =
      static_cast<int32_t>(options_.duration / frame_interval_);
}

void VideoSource::Start(std::function<void()> on_complete) {
  on_complete_ = std::move(on_complete);
  stream_id_ = api_->VideoStreamCreate(options_.width, options_.height, options_.dst);
  EmitFrame();
}

void VideoSource::EmitFrame() {
  if (frames_emitted_ >= total_frames_) {
    api_->VideoStreamDestroy(stream_id_);
    if (on_complete_) {
      on_complete_();
    }
    return;
  }
  // The player decodes the frame on its host CPU.
  if (app_cpu_ != nullptr) {
    app_cpu_->Charge(kDecodeCostUs);
  }
  Yv12Frame frame = FrameContent(frames_emitted_, options_.width, options_.height);
  api_->VideoFrame(stream_id_, frame);
  ++frames_emitted_;
  loop_->Schedule(frame_interval_, [this] { EmitFrame(); });
}

Yv12Frame VideoSource::FrameContent(int32_t index, int32_t width, int32_t height) {
  Yv12Frame f = Yv12Frame::Allocate(width, height);
  // Moving diagonal luma pattern with per-frame block noise; slowly rotating
  // chroma fields. Always-changing, poorly compressible — video-like.
  const int32_t shift = index * 3;
  for (int32_t y = 0; y < f.height; ++y) {
    for (int32_t x = 0; x < f.width; ++x) {
      uint32_t n = static_cast<uint32_t>((x / 8) * 73856093u ^ (y / 8) * 19349663u ^
                                         static_cast<uint32_t>(index) * 83492791u);
      f.y[static_cast<size_t>(y) * f.width + x] =
          static_cast<uint8_t>(((x + y + shift) & 0xFF) ^ (n & 0x3F));
    }
  }
  const int32_t cw = f.width / 2;
  const int32_t ch = f.height / 2;
  for (int32_t y = 0; y < ch; ++y) {
    for (int32_t x = 0; x < cw; ++x) {
      f.u[static_cast<size_t>(y) * cw + x] =
          static_cast<uint8_t>(128 + ((x + shift) % 64) - 32);
      f.v[static_cast<size_t>(y) * cw + x] =
          static_cast<uint8_t>(128 + ((y + shift / 2) % 64) - 32);
    }
  }
  return f;
}

}  // namespace thinc
