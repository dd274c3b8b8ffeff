// A/V playback workload: stands in for MPlayer playing the paper's 34.75 s
// 352x240 MPEG-1 clip at full-screen resolution (Section 8.2).
//
// The "player" decodes (CPU charge on the application host) and hands YV12
// frames to the display system through the XVideo-like DrawingApi at 24 fps
// real-time pacing. Systems with a video-capable driver (THINC) receive the
// YV12 stream; everyone else gets the window server's software-converted
// RGB fallback. Frame content is a moving pattern so pixel-level encoders
// see video-like (poorly compressible, always-changing) data.
#ifndef THINC_SRC_WORKLOAD_VIDEO_H_
#define THINC_SRC_WORKLOAD_VIDEO_H_

#include <cstdint>
#include <functional>

#include "src/display/drawing_api.h"
#include "src/raster/yuv.h"
#include "src/util/cpu.h"
#include "src/util/event_loop.h"

namespace thinc {

struct VideoSourceOptions {
  int32_t width = 352;
  int32_t height = 240;
  double fps = 24.0;
  SimTime duration = static_cast<SimTime>(34.75 * kSecond);
  Rect dst;  // on-screen placement (full screen in the benchmark)
};

class VideoSource {
 public:
  VideoSource(EventLoop* loop, DrawingApi* api, CpuAccount* app_cpu,
              VideoSourceOptions options);

  // Begins playback; frames are emitted at real-time pacing.
  void Start(std::function<void()> on_complete = {});

  int32_t total_frames() const { return total_frames_; }
  int32_t frames_emitted() const { return frames_emitted_; }
  SimTime frame_interval() const { return frame_interval_; }

  // Deterministic YV12 content for frame `index`.
  static Yv12Frame FrameContent(int32_t index, int32_t width, int32_t height);

 private:
  void EmitFrame();

  EventLoop* loop_;
  DrawingApi* api_;
  CpuAccount* app_cpu_;
  VideoSourceOptions options_;
  int32_t stream_id_ = -1;
  int32_t total_frames_;
  int32_t frames_emitted_ = 0;
  SimTime frame_interval_;
  std::function<void()> on_complete_;
};

}  // namespace thinc

#endif  // THINC_SRC_WORKLOAD_VIDEO_H_
