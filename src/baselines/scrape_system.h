// Screen-scraping baselines: VNC and GoToMyPC (Section 2).
//
// The GUI runs on the server; the display driver merely accumulates a dirty
// region of the *resulting pixels* — all command semantics are discarded,
// which is precisely what THINC's translation layer avoids. Updates are
// delivered client-pull: the client requests, the server encodes whatever is
// dirty and replies, the client applies and requests again. The pull round
// trip is what halves VNC's video quality in the WAN (Section 8.3), and the
// dirty-region coalescing between requests is where its dropped video frames
// go.
//
// VNC encodes updates with hextile (plus LZSS in its adaptive/aggressive
// profile). GoToMyPC quantizes to 8-bit color and applies expensive
// compression (small data, high server CPU — its Figure 2/3 signature), and
// routes everything through an intermediate relay host.
#ifndef THINC_SRC_BASELINES_SCRAPE_SYSTEM_H_
#define THINC_SRC_BASELINES_SCRAPE_SYSTEM_H_

#include <memory>
#include <optional>
#include <string>

#include "src/baselines/wire_baseline.h"

namespace thinc {

struct ScrapeOptions {
  std::string name = "VNC";
  bool palette8 = false;           // GoToMyPC: 8-bit 3-3-2 color
  bool heavy_compression = false;  // GoToMyPC: expensive encode
  bool aggressive = false;         // VNC adaptive profile (hextile + LZSS)
  bool relay = false;              // GoToMyPC intermediate server
  // PDA mode: GoToMyPC resizes on the client; VNC clips the viewport.
  bool resize_on_client = false;
};

ScrapeOptions MakeVncOptions(bool aggressive);
ScrapeOptions MakeGotomypcOptions();

class ScrapeSystem : public WireBaseline {
 public:
  ScrapeSystem(EventLoop* loop, const LinkParams& link, int32_t screen_width,
               int32_t screen_height, ScrapeOptions options);

  std::string name() const override { return options_.name; }
  bool SupportsViewport() const override { return true; }
  void SetViewport(int32_t width, int32_t height) override;
  const Surface* ClientFramebuffer() const override { return &client_fb_; }

  int64_t updates_sent() const { return updates_sent_; }

 private:
  enum class Msg : uint8_t { kUpdate = 1, kRequest = 2, kInput = 3 };

  // Driver that discards semantics and accumulates damage.
  class ScrapeDriver : public DisplayDriver {
   public:
    explicit ScrapeDriver(ScrapeSystem* owner) : owner_(owner) {}
    void OnFillSolid(DrawableId dst, const Region& region, Pixel) override {
      owner_->Damage(dst, region);
    }
    void OnFillTiled(DrawableId dst, const Region& region, const Surface&,
                     Point) override {
      owner_->Damage(dst, region);
    }
    void OnFillStippled(DrawableId dst, const Region& region, const Bitmap&, Point,
                        Pixel, Pixel, bool) override {
      owner_->Damage(dst, region);
    }
    void OnCopy(DrawableId, DrawableId dst, const Rect& src_rect,
                Point dst_origin) override {
      owner_->Damage(dst, Region(Rect{dst_origin.x, dst_origin.y, src_rect.width,
                                      src_rect.height}));
    }
    void OnPutImage(DrawableId dst, const Rect& rect,
                    std::span<const Pixel>) override {
      owner_->Damage(dst, Region(rect));
    }
    void OnComposite(DrawableId dst, const Rect& rect,
                     std::span<const Pixel>) override {
      owner_->Damage(dst, Region(rect));
    }

   private:
    ScrapeSystem* owner_;
  };

  void Damage(DrawableId dst, const Region& region);
  void ClientRequestUpdate();
  void MaybeAnswer();
  void EncodeAndSend();
  void HandleClientFrame(uint8_t type, std::span<const uint8_t> payload) override;
  void HandleServerFrame(uint8_t type, std::span<const uint8_t> payload) override;
  void HandleUpdate(std::span<const uint8_t> payload);

  ScrapeOptions options_;
  std::unique_ptr<Transport> conn_client_;  // relay <-> client (relay mode)
  std::unique_ptr<Relay> relay_;
  Surface client_fb_;

  Region dirty_;
  bool request_pending_ = false;
  bool answer_scheduled_ = false;
  std::optional<Rect> viewport_;  // clip (VNC) or client-resize (GoToMyPC)
  int64_t updates_sent_ = 0;
};

}  // namespace thinc

#endif  // THINC_SRC_BASELINES_SCRAPE_SYSTEM_H_
