#include "src/baselines/rdp_system.h"

#include <algorithm>
#include <cstring>

#include "src/codec/lzss.h"
#include "src/util/logging.h"

namespace thinc {
namespace {

// Fixed per-order processing overhead ("added overhead of supporting a
// complex set of display primitives").
constexpr double kOrderCost = 4.0;

uint64_t HashPixels(const Rect& rect, std::span<const Pixel> pixels) {
  uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ULL;
  };
  mix(static_cast<uint64_t>(rect.width));
  mix(static_cast<uint64_t>(rect.height));
  for (Pixel p : pixels) {
    mix(p);
  }
  return h;
}

}  // namespace

RdpOptions MakeRdpOptions(bool wan_profile) {
  RdpOptions o;
  o.name = "RDP";
  o.aggressive = wan_profile;
  return o;
}

RdpOptions MakeIcaOptions(bool wan_profile) {
  RdpOptions o;
  o.name = "ICA";
  o.ica_client_resize = true;
  o.aggressive = wan_profile;
  o.processing_scale = 1.6;
  return o;
}

RdpSystem::RdpSystem(EventLoop* loop, const LinkParams& link, int32_t screen_width,
                     int32_t screen_height, RdpOptions options)
    : WireBaseline(loop, link, options.server_cpu_cores,
                   static_cast<uint8_t>(Msg::kInput), static_cast<uint8_t>(Msg::kAudio)),
      options_(std::move(options)), client_fb_(screen_width, screen_height, kBlack) {
  HostWindowServer(std::make_unique<RdpDriver>(this), screen_width, screen_height);
}

void RdpSystem::SetViewport(int32_t width, int32_t height) {
  viewport_ = Rect{0, 0, width, height};
  client_fb_ = Surface(width, height, kBlack);
}

// --- Driver hooks ---------------------------------------------------------------

void RdpSystem::RdpDriver::OnFillSolid(DrawableId dst, const Region& region,
                                       Pixel color) {
  if (dst != kScreenDrawable) {
    return;
  }
  WireWriter w;
  w.RegionVal(region);
  w.U32(color);
  owner_->SendOrder(Msg::kFill, &w, owner_->server_cpu_.Charge(kOrderCost));
}

void RdpSystem::RdpDriver::OnFillTiled(DrawableId dst, const Region& region,
                                       const Surface& tile, Point origin) {
  if (dst != kScreenDrawable) {
    return;
  }
  WireWriter w;
  w.RegionVal(region);
  w.PointVal(origin);
  w.U16(static_cast<uint16_t>(tile.width()));
  w.U16(static_cast<uint16_t>(tile.height()));
  std::span<const Pixel> px = tile.pixels();
  w.Bytes(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(px.data()),
                                   px.size() * sizeof(Pixel)));
  owner_->SendOrder(Msg::kTile, &w, owner_->server_cpu_.Charge(kOrderCost));
}

void RdpSystem::RdpDriver::OnFillStippled(DrawableId dst, const Region& region,
                                          const Bitmap& stipple, Point origin,
                                          Pixel fg, Pixel bg, bool transparent) {
  if (dst != kScreenDrawable) {
    return;
  }
  WireWriter w;
  w.RegionVal(region);
  w.PointVal(origin);
  w.U32(fg);
  w.U32(bg);
  w.U8(transparent ? 1 : 0);
  w.BitmapVal(stipple);
  owner_->SendOrder(Msg::kGlyph, &w, owner_->server_cpu_.Charge(kOrderCost));
}

void RdpSystem::RdpDriver::OnCopy(DrawableId src, DrawableId dst,
                                  const Rect& src_rect, Point dst_origin) {
  if (dst != kScreenDrawable) {
    return;  // offscreen drawing invisible
  }
  Rect dst_rect{dst_origin.x, dst_origin.y, src_rect.width, src_rect.height};
  if (src == kScreenDrawable) {
    WireWriter w;
    w.RectVal(src_rect);
    w.PointVal(dst_origin);
    owner_->SendOrder(Msg::kCopy, &w, owner_->server_cpu_.Charge(kOrderCost));
    return;
  }
  // Copy from untracked offscreen memory: read back resulting pixels.
  Rect clipped = dst_rect.Intersect(owner_->server_ws_->screen().bounds());
  if (clipped.empty()) {
    return;
  }
  std::vector<Pixel> pixels = owner_->server_ws_->screen().GetPixels(clipped);
  owner_->SendImage(clipped, pixels, /*video_hint=*/false);
}

void RdpSystem::RdpDriver::OnPutImage(DrawableId dst, const Rect& rect,
                                      std::span<const Pixel> pixels) {
  if (dst != kScreenDrawable) {
    return;
  }
  // Direct on-screen image stores are the video fallback path; when the
  // compressor is saturated the source frame is simply skipped. Saturation
  // means no core frees up soon (earliest_free) — the busy_until() max
  // would skip frames an idle core of a multi-core host could compress.
  if (owner_->server_cpu_.earliest_free() >
      owner_->loop_->now() + 100 * kMillisecond) {
    return;
  }
  owner_->SendImage(rect, pixels, /*video_hint=*/true);
}

void RdpSystem::RdpDriver::OnComposite(DrawableId dst, const Rect& rect,
                                       std::span<const Pixel> blended) {
  if (dst != kScreenDrawable) {
    return;
  }
  owner_->SendImage(rect, blended, /*video_hint=*/false);
}

// --- Server send paths ------------------------------------------------------------

void RdpSystem::SendOrder(Msg type, WireWriter* body, SimTime release, int64_t key) {
  std::vector<uint8_t> payload = body->Take();
  out_->Enqueue(BuildFrame(static_cast<MsgType>(type), payload), release, key);
}

void RdpSystem::SendImage(const Rect& rect, std::span<const Pixel> pixels,
                          bool video_hint) {
  uint64_t hash = HashPixels(rect, pixels);
  if (bitmap_cache_.contains(hash)) {
    // Cache hit: a 16-byte reference replaces the payload.
    WireWriter w;
    w.RectVal(rect);
    w.I64(static_cast<int64_t>(hash));
    SendOrder(Msg::kImageCached, &w, server_cpu_.Charge(kOrderCost));
    return;
  }
  bitmap_cache_.insert(hash);

  std::span<const uint8_t> raw(reinterpret_cast<const uint8_t*>(pixels.data()),
                               pixels.size() * sizeof(Pixel));
  std::vector<uint8_t> encoded = LzssEncode(raw);
  double cost = kOrderCost + cpucost::kLzssPerByte * static_cast<double>(raw.size());
  if (options_.aggressive) {
    cost *= 1.5;  // tighter search in the WAN profile
  }
  cost *= options_.processing_scale;
  WireWriter w;
  w.RectVal(rect);
  w.I64(static_cast<int64_t>(hash));
  w.U32(static_cast<uint32_t>(raw.size()));
  w.U32(static_cast<uint32_t>(encoded.size()));
  w.Bytes(encoded);
  // Video frames coalesce under pressure (same geometry key): outdated
  // frames are replaced before transmission.
  int64_t key = -1;
  if (video_hint) {
    key = (static_cast<int64_t>(rect.x) << 40) ^ (static_cast<int64_t>(rect.y) << 24) ^
          (static_cast<int64_t>(rect.width) << 12) ^ rect.height;
  }
  SendOrder(Msg::kImage, &w, server_cpu_.Charge(cost), key);
}

void RdpSystem::SubmitAudio(std::span<const uint8_t> pcm, SimTime timestamp) {
  size_t compressed = pcm.size() / 4;
  WireWriter w;
  w.I64(timestamp);
  w.U32(static_cast<uint32_t>(pcm.size()));
  w.U32(static_cast<uint32_t>(compressed));
  std::vector<uint8_t> body(compressed, 0xAB);
  w.Bytes(body);
  std::vector<uint8_t> payload = w.Take();
  out_->Enqueue(BuildFrame(static_cast<MsgType>(Msg::kAudio), payload),
                server_cpu_.Charge(0.02 * static_cast<double>(pcm.size())));
}

// --- Client side -------------------------------------------------------------------

void RdpSystem::ApplyImage(const Rect& rect, const std::vector<Pixel>& pixels) {
  if (viewport_.has_value()) {
    if (options_.ica_client_resize) {
      // ICA: resample full-size data on the (slow) client.
      ResampleOnClient(rect, pixels, *viewport_, &client_fb_);
    } else {
      // RDP: clip — only the part inside the viewport window is visible.
      Rect visible = rect.Intersect(*viewport_);
      if (!visible.empty()) {
        std::vector<Pixel> sub(static_cast<size_t>(visible.area()));
        for (int32_t y = 0; y < visible.height; ++y) {
          const Pixel* from = pixels.data() +
                              static_cast<size_t>(visible.y - rect.y + y) * rect.width +
                              (visible.x - rect.x);
          std::copy(from, from + visible.width,
                    sub.begin() + static_cast<size_t>(y) * visible.width);
        }
        client_fb_.PutPixels(visible, sub);
      }
    }
  } else {
    client_fb_.PutPixels(rect, pixels);
  }
  ProbeVideo(Region(rect));
}

void RdpSystem::HandleClientFrame(uint8_t type, std::span<const uint8_t> payload) {
  WireReader r(payload);
  client_cpu_.Charge(kOrderCost);  // per-order client processing
  switch (static_cast<Msg>(type)) {
    case Msg::kFill: {
      Region region;
      uint32_t color;
      if (r.RegionVal(&region) && r.U32(&color)) {
        if (viewport_.has_value() && !options_.ica_client_resize) {
          region = region.Intersect(*viewport_);
        }
        // Under ICA resize, fills keep coordinates; approximate by scaling
        // their bounds through the image path for simplicity: fills are
        // cheap either way, so apply full-size semantics only when
        // unscaled.
        if (!viewport_.has_value() || !options_.ica_client_resize) {
          client_fb_.FillRegion(region, color);
        } else {
          client_fb_.FillRect(ScaleToViewport(region.Bounds(), *viewport_)
                                  .Intersect(client_fb_.bounds()),
                              color);
        }
      }
      break;
    }
    case Msg::kTile: {
      Region region;
      Point origin;
      uint16_t tw, th;
      if (r.RegionVal(&region) && r.PointVal(&origin) && r.U16(&tw) && r.U16(&th)) {
        std::vector<uint8_t> bytes;
        if (r.Bytes(static_cast<size_t>(tw) * th * sizeof(Pixel), &bytes)) {
          Surface tile(tw, th);
          std::vector<Pixel> px(static_cast<size_t>(tw) * th);
          std::memcpy(px.data(), bytes.data(), bytes.size());
          tile.PutPixels(Rect{0, 0, tw, th}, px);
          if (viewport_.has_value()) {
            if (options_.ica_client_resize) {
              break;  // ICA small-screen: folded into resampled image traffic
            }
            region = region.Intersect(*viewport_);
          }
          client_fb_.FillTiled(region, tile, origin);
        }
      }
      break;
    }
    case Msg::kGlyph: {
      Region region;
      Point origin;
      uint32_t fg, bg;
      uint8_t transparent;
      Bitmap stipple;
      if (r.RegionVal(&region) && r.PointVal(&origin) && r.U32(&fg) && r.U32(&bg) &&
          r.U8(&transparent) && r.BitmapVal(&stipple)) {
        if (viewport_.has_value()) {
          if (options_.ica_client_resize) {
            break;  // ICA small-screen: folded into resampled image traffic
          }
          region = region.Intersect(*viewport_);
        }
        client_fb_.FillStippled(region, stipple, origin, fg, bg, transparent != 0);
      }
      break;
    }
    case Msg::kCopy: {
      Rect src;
      Point dst;
      if (r.RectVal(&src) && r.PointVal(&dst) && !viewport_.has_value()) {
        client_fb_.CopyFrom(client_fb_, src, dst);
      }
      break;
    }
    case Msg::kImage: {
      Rect rect;
      int64_t hash;
      uint32_t raw_len, enc_len;
      if (!r.RectVal(&rect) || !r.I64(&hash) || !r.U32(&raw_len) ||
          !r.U32(&enc_len)) {
        break;
      }
      std::vector<uint8_t> encoded;
      if (!r.Bytes(enc_len, &encoded)) {
        break;
      }
      std::vector<uint8_t> raw;
      if (!LzssDecode(encoded, &raw) || raw.size() != raw_len ||
          raw.size() != static_cast<size_t>(rect.area()) * sizeof(Pixel)) {
        break;
      }
      std::vector<Pixel> pixels(static_cast<size_t>(rect.area()));
      if (!raw.empty()) {  // an empty image has no buffers to copy between
        std::memcpy(pixels.data(), raw.data(), raw.size());
      }
      client_cpu_.Charge(cpucost::kDecodePerByte * static_cast<double>(enc_len));
      client_cache_[static_cast<uint64_t>(hash)] = pixels;
      ApplyImage(rect, pixels);
      break;
    }
    case Msg::kImageCached: {
      Rect rect;
      int64_t hash;
      if (!r.RectVal(&rect) || !r.I64(&hash)) {
        break;
      }
      // A reference whose rect disagrees with the cached image's size is
      // malformed: drop it rather than read past the cached pixels.
      auto it = client_cache_.find(static_cast<uint64_t>(hash));
      if (it != client_cache_.end() &&
          it->second.size() == static_cast<size_t>(rect.area())) {
        ApplyImage(rect, it->second);
      }
      break;
    }
    case Msg::kAudio:
      ReceiveAudio(payload);  // counts the decoded output volume
      break;
    default:
      break;
  }
}

}  // namespace thinc
