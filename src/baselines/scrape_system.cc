#include "src/baselines/scrape_system.h"

#include <cstring>

#include "src/codec/hextile.h"
#include "src/codec/lzss.h"
#include "src/codec/palette.h"
#include "src/util/logging.h"

namespace thinc {
namespace {

constexpr SimTime kDefer = 5 * kMillisecond;  // update aggregation window

// Each relay leg contributes half the end-to-end RTT.
LinkParams RelayLeg(const LinkParams& link) {
  LinkParams leg = link;
  leg.rtt = link.rtt / 2;
  return leg;
}

}  // namespace

ScrapeOptions MakeVncOptions(bool aggressive) {
  ScrapeOptions o;
  o.name = "VNC";
  o.aggressive = aggressive;
  return o;
}

ScrapeOptions MakeGotomypcOptions() {
  ScrapeOptions o;
  o.name = "GoToMyPC";
  o.palette8 = true;
  o.heavy_compression = true;
  o.relay = true;
  o.resize_on_client = true;
  return o;
}

ScrapeSystem::ScrapeSystem(EventLoop* loop, const LinkParams& link,
                           int32_t screen_width, int32_t screen_height,
                           ScrapeOptions options)
    : WireBaseline(loop, options.relay ? RelayLeg(link) : link,
                   /*server_cpu_cores=*/1, static_cast<uint8_t>(Msg::kInput),
                   kNoAudio),
      options_(std::move(options)), client_fb_(screen_width, screen_height, kBlack) {
  if (options_.relay) {
    // The hosted intermediate server joins the server leg to a client leg.
    conn_client_ = std::make_unique<Connection>(loop, RelayLeg(link));
    relay_ = std::make_unique<Relay>(conn_.get(), Transport::kClient,
                                     conn_client_.get(), Transport::kServer);
    SetClientLeg(conn_client_.get());
  }
  HostWindowServer(std::make_unique<ScrapeDriver>(this), screen_width,
                   screen_height);
  // The client opens with an initial update request (RFB handshake).
  ClientRequestUpdate();
}

void ScrapeSystem::ClientRequestUpdate() {
  std::vector<uint8_t> frame = BuildFrame(static_cast<MsgType>(Msg::kRequest), {});
  client_leg()->Send(Transport::kClient, frame);
}

void ScrapeSystem::SetViewport(int32_t width, int32_t height) {
  viewport_ = Rect{0, 0, width, height};
  client_fb_ = Surface(width, height, kBlack);
}

void ScrapeSystem::Damage(DrawableId dst, const Region& region) {
  if (dst != kScreenDrawable) {
    return;  // semantics (and offscreen content) are invisible to a scraper
  }
  dirty_ = dirty_.Union(region);
  MaybeAnswer();
}

void ScrapeSystem::MaybeAnswer() {
  if (!request_pending_ || dirty_.empty() || answer_scheduled_) {
    return;
  }
  answer_scheduled_ = true;
  loop_->Schedule(kDefer, [this] {
    answer_scheduled_ = false;
    EncodeAndSend();
  });
}

void ScrapeSystem::EncodeAndSend() {
  if (!request_pending_ || dirty_.empty()) {
    return;
  }
  Region to_send = dirty_;
  if (viewport_.has_value() && !options_.resize_on_client) {
    // Clip model: only the viewport window into the desktop is shipped.
    to_send = to_send.Intersect(*viewport_);
    dirty_ = dirty_.Subtract(*viewport_);
    if (to_send.empty()) {
      return;
    }
  } else {
    dirty_ = Region();
  }
  request_pending_ = false;

  WireWriter w;
  w.U32(static_cast<uint32_t>(to_send.rect_count()));
  double cpu_cost = 0;
  for (const Rect& r : to_send.rects()) {
    std::vector<Pixel> pixels = server_ws_->screen().GetPixels(r);
    const double raw_bytes = static_cast<double>(pixels.size() * sizeof(Pixel));
    std::vector<uint8_t> encoded;
    uint8_t mode;
    if (options_.palette8) {
      // GoToMyPC: quantize to 8-bit, then compress hard.
      std::vector<uint8_t> indexed = PaletteQuantize(pixels);
      encoded = LzssEncode(indexed);
      cpu_cost += cpucost::kHeavyPerByte * raw_bytes;
      mode = 2;
    } else {
      encoded = HextileEncode(pixels, r.width, r.height);
      cpu_cost += cpucost::kHextilePerByte * raw_bytes;
      mode = 0;
      if (options_.aggressive) {
        std::vector<uint8_t> packed = LzssEncode(encoded);
        cpu_cost += cpucost::kLzssPerByte * static_cast<double>(encoded.size());
        if (packed.size() < encoded.size()) {
          encoded = std::move(packed);
          mode = 1;
        }
      }
    }
    w.RectVal(r);
    w.U8(mode);
    w.U32(static_cast<uint32_t>(encoded.size()));
    w.Bytes(encoded);
  }
  SimTime release = server_cpu_.Charge(cpu_cost);
  std::vector<uint8_t> payload = w.Take();
  out_->Enqueue(BuildFrame(static_cast<MsgType>(Msg::kUpdate), payload), release);
  ++updates_sent_;
}

void ScrapeSystem::HandleServerFrame(uint8_t type, std::span<const uint8_t> payload) {
  if (static_cast<Msg>(type) == Msg::kRequest) {
    request_pending_ = true;
    MaybeAnswer();
    return;
  }
  WireBaseline::HandleServerFrame(type, payload);
}

void ScrapeSystem::HandleClientFrame(uint8_t type, std::span<const uint8_t> payload) {
  if (static_cast<Msg>(type) == Msg::kUpdate) {
    HandleUpdate(payload);
    // Pull model: processed this update, ask for the next.
    ClientRequestUpdate();
  }
}

void ScrapeSystem::HandleUpdate(std::span<const uint8_t> payload) {
  WireReader r(payload);
  uint32_t rect_count;
  if (!r.U32(&rect_count) || rect_count > 1'000'000) {
    return;
  }
  Region covered;
  for (uint32_t i = 0; i < rect_count; ++i) {
    Rect rect;
    uint8_t mode;
    uint32_t len;
    if (!r.RectVal(&rect) || !r.U8(&mode) || !r.U32(&len)) {
      return;
    }
    std::vector<uint8_t> encoded;
    if (!r.Bytes(len, &encoded)) {
      return;
    }
    std::vector<Pixel> pixels;
    if (mode == 2) {
      std::vector<uint8_t> indexed;
      if (!LzssDecode(encoded, &indexed) ||
          indexed.size() != static_cast<size_t>(rect.area())) {
        return;
      }
      pixels = PaletteExpand(indexed);
    } else if (mode == 1) {
      std::vector<uint8_t> hextile;
      if (!LzssDecode(encoded, &hextile) ||
          !HextileDecode(hextile, rect.width, rect.height, &pixels)) {
        return;
      }
    } else {
      if (!HextileDecode(encoded, rect.width, rect.height, &pixels)) {
        return;
      }
    }
    client_cpu_.Charge(cpucost::kDecodePerByte * static_cast<double>(len) * 2);

    if (viewport_.has_value() && options_.resize_on_client) {
      // GoToMyPC PDA: full-resolution data arrives; the *client* resamples —
      // latency up, bandwidth unchanged (Section 8.3).
      ResampleOnClient(rect, pixels, *viewport_, &client_fb_);
    } else {
      client_fb_.PutPixels(rect, pixels);
    }
    covered = covered.Union(rect);
  }
  ProbeVideo(covered, options_.resize_on_client ? std::nullopt : viewport_);
}

}  // namespace thinc
