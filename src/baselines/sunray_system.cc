#include "src/baselines/sunray_system.h"

#include <algorithm>

#include "src/codec/lzss.h"
#include "src/codec/rle32.h"
#include "src/util/logging.h"

namespace thinc {

SunRaySystem::SunRaySystem(EventLoop* loop, const LinkParams& link,
                           int32_t screen_width, int32_t screen_height,
                           SunRayOptions options)
    : WireBaseline(loop, link, options.server_cpu_cores,
                   static_cast<uint8_t>(Msg::kInput), static_cast<uint8_t>(Msg::kAudio)),
      options_(options), client_fb_(screen_width, screen_height, kBlack) {
  HostWindowServer(std::make_unique<SunRayDriver>(this), screen_width, screen_height);
}

void SunRaySystem::SendFill(const Region& region, Pixel color) {
  WireWriter w;
  w.RegionVal(region);
  w.U32(color);
  std::vector<uint8_t> payload = w.Take();
  out_->Enqueue(BuildFrame(static_cast<MsgType>(Msg::kFill), payload),
                server_cpu_.Charge(1.0));
}

void SunRaySystem::SendCopy(const Rect& src_rect, Point dst_origin) {
  WireWriter w;
  w.RectVal(src_rect);
  w.PointVal(dst_origin);
  std::vector<uint8_t> payload = w.Take();
  out_->Enqueue(BuildFrame(static_cast<MsgType>(Msg::kCopy), payload),
                server_cpu_.Charge(1.0));
}

void SunRaySystem::InferRegion(DrawableId dst, const Region& region) {
  if (dst != kScreenDrawable) {
    return;  // offscreen drawing is ignored entirely
  }
  for (const Rect& r : region.rects()) {
    InferAndSend(r, /*from_video=*/false);
  }
}

void SunRaySystem::InferAndSend(const Rect& rect, bool from_video) {
  // Sampling works tile-by-tile: a mixed update decomposes into solid,
  // two-color (text) and pixel tiles. Video goes whole (one coalescible
  // unit).
  constexpr int32_t kTile = 128;
  if (!from_video && (rect.width > kTile || rect.height > kTile)) {
    for (int32_t ty = rect.y; ty < rect.bottom(); ty += kTile) {
      for (int32_t tx = rect.x; tx < rect.right(); tx += kTile) {
        InferTile(Rect{tx, ty, std::min(kTile, rect.right() - tx),
                       std::min(kTile, rect.bottom() - ty)});
      }
    }
    return;
  }
  InferTile(rect);
}

void SunRaySystem::InferTile(const Rect& rect) {
  int64_t key = (static_cast<int64_t>(rect.x) << 40) ^
                (static_cast<int64_t>(rect.y) << 24) ^
                (static_cast<int64_t>(rect.width) << 12) ^ rect.height;

  std::vector<Pixel> pixels = server_ws_->screen().GetPixels(rect);
  const double raw_bytes = static_cast<double>(pixels.size() * sizeof(Pixel));
  // "Reduced to pixel data then sampled": per-pixel analysis cost.
  double cost = static_cast<double>(rect.area()) * cpucost::kPixelAnalysisPerPixel;

  // Uniform-color detection recovers a solid fill; two colors recover a
  // bitmap (text over background).
  Pixel c0 = pixels.empty() ? 0 : pixels[0];
  Pixel c1 = c0;
  int distinct = pixels.empty() ? 0 : 1;
  for (Pixel p : pixels) {
    if (p == c0 || (distinct == 2 && p == c1)) {
      continue;
    }
    if (distinct == 1) {
      c1 = p;
      distinct = 2;
    } else {
      distinct = 3;
      break;
    }
  }
  if (distinct == 1) {
    server_cpu_.Charge(cost);
    SendFill(Region(rect), c0);
    return;
  }
  if (distinct == 2) {
    // This update ships when ITS analysis completes (the Charge() return),
    // not at the whole host's busy_until() max.
    SimTime analyzed_at = server_cpu_.Charge(cost);
    Bitmap mask(rect.width, rect.height);
    for (int32_t y = 0; y < rect.height; ++y) {
      for (int32_t x = 0; x < rect.width; ++x) {
        if (pixels[static_cast<size_t>(y) * rect.width + x] == c1) {
          mask.Set(x, y, true);
        }
      }
    }
    WireWriter w;
    w.RectVal(rect);
    w.U32(c0);
    w.U32(c1);
    w.BitmapVal(mask);
    std::vector<uint8_t> payload = w.Take();
    out_->Enqueue(BuildFrame(static_cast<MsgType>(Msg::kBitmapFill), payload),
                  analyzed_at, key);
    return;
  }

  std::span<const uint8_t> raw(reinterpret_cast<const uint8_t*>(pixels.data()),
                               pixels.size() * sizeof(Pixel));
  std::vector<uint8_t> encoded;
  uint8_t mode;
  if (options_.aggressive_compression) {
    encoded = LzssEncode(raw);
    cost += cpucost::kLzssPerByte * raw_bytes;
    mode = 1;
  } else {
    // Fast-link profile: pixel-granular RLE, cheap and effective on flat
    // regions.
    encoded = Rle32Encode(pixels);
    cost += cpucost::kRlePerByte * raw_bytes;
    mode = 0;
  }
  WireWriter w;
  w.RectVal(rect);
  w.U8(mode);
  w.U32(static_cast<uint32_t>(raw.size()));
  w.U32(static_cast<uint32_t>(encoded.size()));
  w.Bytes(encoded);
  SimTime release = server_cpu_.Charge(cost);
  std::vector<uint8_t> payload = w.Take();
  out_->Enqueue(BuildFrame(static_cast<MsgType>(Msg::kRaw), payload), release, key);
}

void SunRaySystem::HandleClientFrame(uint8_t type, std::span<const uint8_t> payload) {
  WireReader r(payload);
  switch (static_cast<Msg>(type)) {
    case Msg::kFill: {
      Region region;
      uint32_t color;
      if (r.RegionVal(&region) && r.U32(&color)) {
        client_fb_.FillRegion(region, color);
        client_cpu_.Charge(1.0);
      }
      break;
    }
    case Msg::kCopy: {
      Rect src;
      Point dst;
      if (r.RectVal(&src) && r.PointVal(&dst)) {
        client_fb_.CopyFrom(client_fb_, src, dst);
        client_cpu_.Charge(1.0);
      }
      break;
    }
    case Msg::kRaw: {
      Rect rect;
      uint8_t mode;
      uint32_t raw_len, enc_len;
      if (!r.RectVal(&rect) || !r.U8(&mode) || !r.U32(&raw_len) ||
          !r.U32(&enc_len)) {
        break;
      }
      std::vector<uint8_t> encoded;
      if (!r.Bytes(enc_len, &encoded)) {
        break;
      }
      std::vector<Pixel> pixels;
      if (mode == 1) {
        std::vector<uint8_t> raw;
        if (!LzssDecode(encoded, &raw) || raw.size() != raw_len ||
            raw.size() != static_cast<size_t>(rect.area()) * sizeof(Pixel)) {
          break;
        }
        pixels = PixelsFromBytes(raw);
      } else {
        if (!Rle32Decode(encoded, &pixels) ||
            pixels.size() != static_cast<size_t>(rect.area())) {
          break;
        }
      }
      client_fb_.PutPixels(rect, pixels);
      client_cpu_.Charge(cpucost::kDecodePerByte * static_cast<double>(enc_len));
      ProbeVideo(Region(rect));
      break;
    }
    case Msg::kBitmapFill: {
      Rect rect;
      uint32_t bg, fg;
      Bitmap mask;
      if (r.RectVal(&rect) && r.U32(&bg) && r.U32(&fg) && r.BitmapVal(&mask)) {
        client_fb_.FillStippled(Region(rect), mask, rect.origin(), fg, bg,
                                /*transparent_bg=*/false);
        client_cpu_.Charge(0.002 * static_cast<double>(rect.area()));
      }
      break;
    }
    case Msg::kAudio:
      ReceiveAudio(payload);
      break;
    default:
      break;
  }
}

}  // namespace thinc
