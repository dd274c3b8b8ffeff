// RDP / ICA baseline (Section 2): server-side GUI with a *rich* mid-level
// order set (the GDI-style display-command approach of Microsoft Remote
// Desktop and Citrix MetaFrame).
//
// Modelled behaviours, per the paper:
//   * Fills, tiles, and glyph text stay semantic (compact orders); bitmap
//     and glyph caches suppress re-sending repeated payloads.
//   * "The added overhead of supporting a complex set of display primitives
//     results in slower responsiveness": each order pays a fixed processing
//     cost on both hosts, and image payloads pay RDP bitmap compression.
//   * No offscreen awareness: pixmap drawing is ignored, copies from
//     offscreen arrive as image data read back from the screen.
//   * No transparent video path in the standard products: frames arrive as
//     software-converted RGB images; the outbound queue coalesces outdated
//     frames (dropped frames) under pressure.
//   * Audio is supported, lossily compressed ~4:1.
//   * PDA: RDP clips the viewport; ICA resizes on the client (full-size
//     data, slow client-side resample — Section 8.3's latency observation).
#ifndef THINC_SRC_BASELINES_RDP_SYSTEM_H_
#define THINC_SRC_BASELINES_RDP_SYSTEM_H_

#include <map>
#include <optional>
#include <set>
#include <string>

#include "src/baselines/wire_baseline.h"

namespace thinc {

struct RdpOptions {
  std::string name = "RDP";
  // ICA mode: client-side resize on PDA (RDP clips instead).
  bool ica_client_resize = false;
  // WAN profile: LZSS the order stream harder.
  bool aggressive = false;
  // Relative cost of image/order processing (MetaFrame's richer pipeline
  // costs more per update than RDP's).
  double processing_scale = 1.0;
  // Cores on the server host (virtual timing only; wire bytes unchanged).
  int server_cpu_cores = 1;
};

RdpOptions MakeRdpOptions(bool wan_profile);
RdpOptions MakeIcaOptions(bool wan_profile);

class RdpSystem : public WireBaseline {
 public:
  RdpSystem(EventLoop* loop, const LinkParams& link, int32_t screen_width,
            int32_t screen_height, RdpOptions options = {});

  std::string name() const override { return options_.name; }
  // Lossy ~4:1 audio codec ("lower audio fidelity due to compression").
  void SubmitAudio(std::span<const uint8_t> pcm, SimTime timestamp) override;
  bool SupportsViewport() const override { return true; }
  void SetViewport(int32_t width, int32_t height) override;
  const Surface* ClientFramebuffer() const override { return &client_fb_; }

 private:
  enum class Msg : uint8_t {
    kFill = 1,
    kTile = 2,
    kGlyph = 3,
    kImage = 4,
    kImageCached = 5,
    kCopy = 6,
    kAudio = 7,
    kInput = 8,
  };

  class RdpDriver : public DisplayDriver {
   public:
    explicit RdpDriver(RdpSystem* owner) : owner_(owner) {}
    void OnFillSolid(DrawableId dst, const Region& region, Pixel color) override;
    void OnFillTiled(DrawableId dst, const Region& region, const Surface& tile,
                     Point origin) override;
    void OnFillStippled(DrawableId dst, const Region& region, const Bitmap& stipple,
                        Point origin, Pixel fg, Pixel bg, bool transparent) override;
    void OnCopy(DrawableId src, DrawableId dst, const Rect& src_rect,
                Point dst_origin) override;
    void OnPutImage(DrawableId dst, const Rect& rect,
                    std::span<const Pixel> pixels) override;
    void OnComposite(DrawableId dst, const Rect& rect,
                     std::span<const Pixel> blended) override;

   private:
    RdpSystem* owner_;
  };

  void SendOrder(Msg type, WireWriter* body, SimTime release, int64_t key = -1);
  void SendImage(const Rect& rect, std::span<const Pixel> pixels, bool video_hint);
  void HandleClientFrame(uint8_t type, std::span<const uint8_t> payload) override;
  void ApplyImage(const Rect& rect, const std::vector<Pixel>& pixels);

  RdpOptions options_;
  Surface client_fb_;

  // Bitmap cache: hashes of image payloads both sides hold.
  std::set<uint64_t> bitmap_cache_;
  // Client-side copy of cached payloads, keyed by hash.
  std::map<uint64_t, std::vector<Pixel>> client_cache_;

  std::optional<Rect> viewport_;
};

}  // namespace thinc

#endif  // THINC_SRC_BASELINES_RDP_SYSTEM_H_
