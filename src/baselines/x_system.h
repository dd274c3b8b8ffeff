// X and NX baselines: the client-side-GUI architecture (Section 2).
//
// Application display commands are serialized at the Xlib level and
// forwarded to a window server running *on the client*, which performs all
// rendering with the client's (slower) CPU. Key modelled behaviours:
//
//   * Synchronous round trips: every `sync_every` requests the application
//     blocks for one RTT (geometry queries, XSync, ...). This is the tight
//     application/interface coupling that makes X degrade ~2.5x from LAN to
//     WAN (Section 8.3). NX's proxy answers most of these locally, which is
//     its main WAN win.
//   * ssh -C style stream compression (LZSS) for X; NX additionally applies
//     its image codec (PNG-like, optionally lossy in the WAN profile) to
//     image payloads.
//   * No XVideo across the network: video frames are color-converted by the
//     player on the server and shipped as full-size RGB images. When the
//     proxy's outbound queue backs up, the player drops frames — X's choppy
//     video.
#ifndef THINC_SRC_BASELINES_X_SYSTEM_H_
#define THINC_SRC_BASELINES_X_SYSTEM_H_

#include <map>
#include <memory>
#include <string>

#include "src/baselines/wire_baseline.h"

namespace thinc {

struct XSystemOptions {
  std::string name = "X";
  // One synchronous (round-trip) request per this many requests.
  int32_t sync_every = 15;
  // NX: PNG-like image codec instead of generic stream compression.
  bool nx_image_codec = false;
  // NX image quantization before encoding: 0 = lossless, 1 = RGB565 (the
  // default profile's mild loss), 2 = RGB444 (the aggressive WAN profile).
  int lossy_level = 0;
  // Cores on the server host (virtual timing only; wire bytes unchanged).
  int server_cpu_cores = 1;
};

XSystemOptions MakeXOptions();
XSystemOptions MakeNxOptions(bool wan_profile);

class XSystem : public WireBaseline, public DrawingApi {
 public:
  XSystem(EventLoop* loop, const LinkParams& link, int32_t screen_width,
          int32_t screen_height, XSystemOptions options);

  // --- RemoteDisplaySystem -----------------------------------------------------
  std::string name() const override { return options_.name; }
  // The application talks to the Xlib-level proxy; its window server runs on
  // the client.
  DrawingApi* api() override { return this; }
  const Surface* ClientFramebuffer() const override {
    return &client_ws_->screen();
  }

  // --- DrawingApi (the Xlib-level proxy) ----------------------------------------
  int32_t screen_width() const override { return width_; }
  int32_t screen_height() const override { return height_; }
  DrawableId CreatePixmap(int32_t width, int32_t height) override;
  void FreePixmap(DrawableId id) override;
  void FillRect(DrawableId dst, const Rect& rect, Pixel color) override;
  void FillTiled(DrawableId dst, const Rect& rect, const Surface& tile,
                 Point origin) override;
  void FillStippled(DrawableId dst, const Rect& rect, const Bitmap& stipple,
                    Point origin, Pixel fg, Pixel bg, bool transparent_bg) override;
  void DrawText(DrawableId dst, Point origin, std::string_view text,
                Pixel fg) override;
  void PutImage(DrawableId dst, const Rect& rect,
                std::span<const Pixel> pixels) override;
  void CopyArea(DrawableId src, DrawableId dst, const Rect& src_rect,
                Point dst_origin) override;
  void CompositeOver(DrawableId dst, const Rect& rect,
                     std::span<const Pixel> argb) override;
  void ScrollUp(DrawableId dst, const Rect& rect, int32_t dy, Pixel fill) override;
  int32_t VideoStreamCreate(int32_t src_width, int32_t src_height,
                            const Rect& dst) override;
  void VideoFrame(int32_t stream_id, const Yv12Frame& frame) override;
  void VideoStreamDestroy(int32_t stream_id) override;

  int64_t video_frames_dropped() const { return video_frames_dropped_; }

 private:
  enum class XMsg : uint8_t {
    kCreatePixmap = 1,
    kFreePixmap = 2,
    kFillRect = 3,
    kFillTiled = 4,
    kFillStippled = 5,
    kDrawText = 6,
    kPutImage = 7,
    kCopyArea = 8,
    kComposite = 9,
    kScroll = 10,
    kVideoImage = 11,
    kAudio = 12,
    kInput = 20,
  };
  enum class BodyCodec : uint8_t { kNone = 0, kLzss = 1, kPngLike = 2 };

  // Serializes, compresses, gates, and queues one request.
  void Submit(XMsg type, WireWriter* body, bool image_payload = false,
              const Rect* image_rect = nullptr, std::span<const Pixel> image = {});
  // Xlib buffers consecutive image stores: adjacent PutImage scanline strips
  // to the same drawable coalesce into one request before transmission.
  void FlushPendingImage();
  void HandleClientFrame(uint8_t type, std::span<const uint8_t> payload) override;

  LinkParams link_;
  XSystemOptions options_;
  int32_t width_;
  int32_t height_;
  std::unique_ptr<WindowServer> client_ws_;  // runs on the client host

  int32_t request_count_ = 0;
  SimTime app_gate_ = 0;  // earliest time the app can issue its next request
  // Pending coalesced image store (empty when pending_image_rect_ is empty).
  DrawableId pending_image_dst_ = 0;
  Rect pending_image_rect_;
  std::vector<Pixel> pending_image_pixels_;
  DrawableId next_pixmap_id_ = 1;  // mirrors the client window server's ids
  int32_t next_stream_id_ = 1;
  std::map<int32_t, Rect> streams_;
  int64_t video_frames_dropped_ = 0;
};

}  // namespace thinc

#endif  // THINC_SRC_BASELINES_X_SYSTEM_H_
