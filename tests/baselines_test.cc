#include <gtest/gtest.h>

#include "src/baselines/local_pc.h"
#include "src/baselines/rdp_system.h"
#include "src/baselines/scrape_system.h"
#include "src/baselines/sunray_system.h"
#include "src/baselines/x_system.h"
#include "src/codec/lzss.h"
#include "src/util/prng.h"

namespace thinc {
namespace {

// Draws a representative content mix through any system's DrawingApi and
// returns the reference image (rendered locally with the same ops).
Surface DrawMixedContent(DrawingApi* api, int32_t w, int32_t h) {
  WindowServer reference(w, h, nullptr, nullptr);
  auto both = [&](auto&& fn) {
    fn(api);
    fn(&reference);
  };
  both([&](DrawingApi* a) { a->FillRect(kScreenDrawable, Rect{0, 0, w, h}, kWhite); });
  both([&](DrawingApi* a) {
    a->FillRect(kScreenDrawable, Rect{10, 10, w / 2, 20}, MakePixel(30, 60, 200));
  });
  both([&](DrawingApi* a) {
    a->DrawText(kScreenDrawable, Point{12, 40}, "BASELINE FIDELITY", kBlack);
  });
  Prng rng(3);
  std::vector<Pixel> image(40 * 30);
  for (Pixel& p : image) {
    p = static_cast<Pixel>(rng.Next()) | 0xFF000000;
  }
  both([&](DrawingApi* a) {
    DrawableId pm = a->CreatePixmap(40, 30);
    a->PutImage(pm, Rect{0, 0, 40, 30}, image);
    a->CopyArea(pm, kScreenDrawable, Rect{0, 0, 40, 30}, Point{20, 60});
    a->FreePixmap(pm);
  });
  both([&](DrawingApi* a) {
    a->CopyArea(kScreenDrawable, kScreenDrawable, Rect{20, 60, 40, 30},
                Point{70, 60});
  });
  return reference.screen();
}

TEST(XSystemTest, ClientRendersFaithfully) {
  EventLoop loop;
  XSystem sys(&loop, LanDesktopLink(), 160, 120, MakeXOptions());
  Surface reference = DrawMixedContent(sys.api(), 160, 120);
  loop.Run();
  int64_t diff = 0;
  EXPECT_TRUE(reference.Equals(*sys.ClientFramebuffer(), &diff))
      << diff << " pixels differ";
}

TEST(XSystemTest, NxDefaultProfileBounded565) {
  // NX's default image profile is mildly lossy (RGB565-quantized images,
  // everything else lossless).
  EventLoop loop;
  XSystem sys(&loop, LanDesktopLink(), 160, 120, MakeNxOptions(false));
  Surface reference = DrawMixedContent(sys.api(), 160, 120);
  loop.Run();
  const Surface& client = *sys.ClientFramebuffer();
  for (int32_t y = 0; y < 120; ++y) {
    for (int32_t x = 0; x < 160; ++x) {
      Pixel a = reference.At(x, y);
      Pixel b = client.At(x, y);
      ASSERT_LE(std::abs(PixelR(a) - PixelR(b)), 8) << x << "," << y;
      ASSERT_LE(std::abs(PixelG(a) - PixelG(b)), 8);
      ASSERT_LE(std::abs(PixelB(a) - PixelB(b)), 8);
    }
  }
}

TEST(XSystemTest, NxWanProfileBounded444) {
  EventLoop loop;
  XSystem sys(&loop, WanDesktopLink(), 160, 120, MakeNxOptions(true));
  Surface reference = DrawMixedContent(sys.api(), 160, 120);
  loop.Run();
  // RGB444 quantization: larger but still bounded channel error.
  const Surface& client = *sys.ClientFramebuffer();
  for (int32_t y = 0; y < 120; ++y) {
    for (int32_t x = 0; x < 160; ++x) {
      Pixel a = reference.At(x, y);
      Pixel b = client.At(x, y);
      ASSERT_LE(std::abs(PixelR(a) - PixelR(b)), 17) << x << "," << y;
      ASSERT_LE(std::abs(PixelG(a) - PixelG(b)), 17);
      ASSERT_LE(std::abs(PixelB(a) - PixelB(b)), 17);
    }
  }
}

TEST(XSystemTest, ImageStripsCoalesceIntoOneRequest) {
  // Xlib request buffering: consecutive scanline strips leave the proxy as
  // one PutImage, so per-strip framing overhead does not multiply.
  auto bytes_for_strips = [](int32_t strip_rows) {
    EventLoop loop;
    XSystem sys(&loop, LanDesktopLink(), 128, 128, MakeXOptions());
    Prng rng(4);
    std::vector<Pixel> image(64 * 64);
    for (Pixel& p : image) {
      p = static_cast<Pixel>(rng.Next()) | 0xFF000000;
    }
    for (int32_t y = 0; y < 64; y += strip_rows) {
      sys.api()->PutImage(
          kScreenDrawable, Rect{0, y, 64, strip_rows},
          std::span<const Pixel>(image.data() + static_cast<size_t>(y) * 64,
                                 static_cast<size_t>(strip_rows) * 64));
    }
    // A fill flushes the pending image.
    sys.api()->FillRect(kScreenDrawable, Rect{100, 100, 4, 4}, kWhite);
    loop.Run();
    return sys.BytesToClient();
  };
  int64_t strip2 = bytes_for_strips(2);
  int64_t strip64 = bytes_for_strips(64);
  // 32 strips cost within a few percent of the single store.
  EXPECT_LT(strip2, strip64 + strip64 / 10);
}

TEST(XSystemTest, PendingImageFlushedBeforeOverlappingFill) {
  // Ordering: a fill issued after buffered strips must land on top of them.
  EventLoop loop;
  XSystem sys(&loop, LanDesktopLink(), 64, 64, MakeXOptions());
  std::vector<Pixel> row(64, MakePixel(1, 2, 3));
  for (int32_t y = 0; y < 8; ++y) {
    sys.api()->PutImage(kScreenDrawable, Rect{0, y, 64, 1}, row);
  }
  sys.api()->FillRect(kScreenDrawable, Rect{0, 0, 64, 4}, kWhite);
  loop.Run();
  EXPECT_EQ(sys.ClientFramebuffer()->At(10, 2), kWhite);
  EXPECT_EQ(sys.ClientFramebuffer()->At(10, 6), MakePixel(1, 2, 3));
}

TEST(XSystemTest, SyncRequestsStallWanPipelines) {
  auto run = [](SimTime rtt, int32_t sync_every) {
    EventLoop loop;
    LinkParams link{100'000'000, rtt, 1 << 20, "x"};
    XSystemOptions options;
    options.sync_every = sync_every;
    XSystem sys(&loop, link, 200, 200, options);
    // 200 small requests.
    for (int i = 0; i < 200; ++i) {
      sys.api()->FillRect(kScreenDrawable, Rect{i % 100, i % 100, 10, 10},
                          MakePixel(static_cast<uint8_t>(i), 0, 0));
    }
    loop.Run();
    return sys.LastDeliveryToClient();
  };
  SimTime lan = run(200, 10);
  SimTime wan = run(66'000, 10);
  SimTime wan_suppressed = run(66'000, 10'000);
  // 20 sync stalls x 66 ms dominates WAN; suppression (NX) removes them.
  EXPECT_GT(wan, lan + 15 * 66'000);
  EXPECT_LT(wan_suppressed, wan / 3);
}

TEST(XSystemTest, InputCrossesNetwork) {
  EventLoop loop;
  XSystem sys(&loop, WanDesktopLink(), 64, 64, MakeXOptions());
  SimTime received_at = -1;
  sys.SetInputCallback([&](Point) { received_at = loop.now(); });
  sys.ClientClick(Point{5, 5});
  loop.Run();
  EXPECT_GE(received_at, 33'000);
}

TEST(ScrapeSystemTest, VncConvergesPixelExact) {
  EventLoop loop;
  ScrapeSystem sys(&loop, LanDesktopLink(), 160, 120, MakeVncOptions(false));
  Surface reference = DrawMixedContent(sys.api(), 160, 120);
  loop.Run();
  int64_t diff = 0;
  EXPECT_TRUE(reference.Equals(*sys.ClientFramebuffer(), &diff))
      << diff << " pixels differ";
}

TEST(ScrapeSystemTest, VncAggressiveProfileConverges) {
  EventLoop loop;
  ScrapeSystem sys(&loop, WanDesktopLink(), 160, 120, MakeVncOptions(true));
  Surface reference = DrawMixedContent(sys.api(), 160, 120);
  loop.Run();
  int64_t diff = 0;
  EXPECT_TRUE(reference.Equals(*sys.ClientFramebuffer(), &diff))
      << diff << " pixels differ";
}

TEST(ScrapeSystemTest, PullModelWaitsForRequest) {
  EventLoop loop;
  ScrapeSystem sys(&loop, WanDesktopLink(), 64, 64, MakeVncOptions(false));
  loop.Run();  // initial request arrives, nothing dirty yet
  sys.api()->FillRect(kScreenDrawable, Rect{0, 0, 64, 64}, kWhite);
  SimTime t0 = loop.now();
  loop.Run();
  // Delivery: defer window + serialization + half RTT (the request was
  // already pending, so no extra round trip for the FIRST update)...
  SimTime first = sys.LastDeliveryToClient();
  EXPECT_GT(first, t0);
  // ...but a SECOND update right after must wait for the next request (a
  // full extra round trip).
  sys.api()->FillRect(kScreenDrawable, Rect{0, 0, 64, 64}, kBlack);
  loop.Run();
  SimTime second = sys.LastDeliveryToClient();
  EXPECT_GE(second - first, 66'000);
}

TEST(ScrapeSystemTest, OffscreenContentInvisibleUntilCopied) {
  EventLoop loop;
  ScrapeSystem sys(&loop, LanDesktopLink(), 64, 64, MakeVncOptions(false));
  DrawableId pm = sys.api()->CreatePixmap(32, 32);
  sys.api()->FillRect(pm, Rect{0, 0, 32, 32}, kWhite);
  loop.Run();
  EXPECT_EQ(sys.BytesToClient(), 0);  // nothing on screen yet
  sys.api()->CopyArea(pm, kScreenDrawable, Rect{0, 0, 32, 32}, Point{0, 0});
  loop.Run();
  EXPECT_GT(sys.BytesToClient(), 0);
}

TEST(ScrapeSystemTest, GotomypcQuantizedFidelity) {
  EventLoop loop;
  ScrapeSystem sys(&loop, WanDesktopLink(), 160, 120, MakeGotomypcOptions());
  Surface reference = DrawMixedContent(sys.api(), 160, 120);
  loop.Run();
  // 8-bit color: bounded quantization error, not pixel-exact.
  const Surface& client = *sys.ClientFramebuffer();
  int64_t total_err = 0;
  for (int32_t y = 0; y < 120; ++y) {
    for (int32_t x = 0; x < 160; ++x) {
      Pixel a = reference.At(x, y);
      Pixel b = client.At(x, y);
      ASSERT_LE(std::abs(PixelR(a) - PixelR(b)), 40);
      ASSERT_LE(std::abs(PixelB(a) - PixelB(b)), 88);
      total_err += std::abs(PixelR(a) - PixelR(b));
    }
  }
  EXPECT_GT(total_err, 0);  // it IS lossy
}

TEST(ScrapeSystemTest, GotomypcRelayAddsLatency) {
  auto first_delivery = [](ScrapeOptions options) {
    EventLoop loop;
    LinkParams link{100'000'000, 70'000, 1 << 20, "inet"};
    ScrapeSystem sys(&loop, link, 64, 64, options);
    loop.Run();
    sys.api()->FillRect(kScreenDrawable, Rect{0, 0, 64, 64}, kWhite);
    SimTime t0 = loop.now();
    loop.Run();
    return sys.LastDeliveryToClient() - t0;
  };
  ScrapeOptions direct = MakeVncOptions(false);
  ScrapeOptions relayed = MakeVncOptions(false);
  relayed.relay = true;
  EXPECT_GT(first_delivery(relayed), first_delivery(direct) - 10'000);
}

TEST(ScrapeSystemTest, VncClipViewportSendsOnlyVisible) {
  EventLoop loop;
  ScrapeSystem sys(&loop, Pda80211gLink(), 256, 192, MakeVncOptions(false));
  sys.SetViewport(64, 48);
  loop.Run();
  // Content fully outside the viewport: nothing crosses the wire.
  sys.api()->FillRect(kScreenDrawable, Rect{128, 128, 64, 48}, kWhite);
  loop.Run();
  int64_t outside = sys.BytesToClient();
  sys.api()->FillRect(kScreenDrawable, Rect{0, 0, 64, 48}, kWhite);
  loop.Run();
  EXPECT_EQ(outside, 0);
  EXPECT_GT(sys.BytesToClient(), 0);
  EXPECT_EQ(sys.ClientFramebuffer()->At(10, 10), kWhite);
}

TEST(SunRaySystemTest, ConvergesPixelExact) {
  EventLoop loop;
  SunRaySystem sys(&loop, LanDesktopLink(), 160, 120);
  Surface reference = DrawMixedContent(sys.api(), 160, 120);
  loop.Run();
  int64_t diff = 0;
  EXPECT_TRUE(reference.Equals(*sys.ClientFramebuffer(), &diff))
      << diff << " pixels differ";
}

TEST(SunRaySystemTest, TwoColorRegionRecoveredAsBitmap) {
  // Sampling recovers text-like (two-color) areas as 1-bit bitmaps instead
  // of 32-bit RAW — part of the Sun Ray command set the paper describes.
  EventLoop loop;
  SunRaySystem sys(&loop, LanDesktopLink(), 128, 128);
  DrawableId pm = sys.api()->CreatePixmap(128, 128);
  sys.api()->FillRect(pm, Rect{0, 0, 128, 128}, kWhite);
  sys.api()->DrawText(pm, Point{4, 4}, "TWO COLOR TEXT AREA", kBlack);
  sys.api()->CopyArea(pm, kScreenDrawable, Rect{0, 0, 128, 128}, Point{0, 0});
  loop.Run();
  // 1 bpp + headers: far below even RLE'd 32-bit pixels (text defeats runs).
  EXPECT_LT(sys.BytesToClient(), 128 * 128 / 2);
  int64_t diff = 0;
  WindowServer reference(128, 128, nullptr, nullptr);
  DrawableId rpm = reference.CreatePixmap(128, 128);
  reference.FillRect(rpm, Rect{0, 0, 128, 128}, kWhite);
  reference.DrawText(rpm, Point{4, 4}, "TWO COLOR TEXT AREA", kBlack);
  reference.CopyArea(rpm, kScreenDrawable, Rect{0, 0, 128, 128}, Point{0, 0});
  EXPECT_TRUE(reference.screen().Equals(*sys.ClientFramebuffer(), &diff)) << diff;
}

TEST(SunRaySystemTest, SolidFillStaysSemantic) {
  EventLoop loop;
  SunRaySystem sys(&loop, LanDesktopLink(), 256, 256);
  sys.api()->FillRect(kScreenDrawable, Rect{0, 0, 256, 256}, kWhite);
  loop.Run();
  EXPECT_LT(sys.BytesToClient(), 200);
}

TEST(SunRaySystemTest, OffscreenFillComesBackAsPixelsNotFill) {
  // The architectural difference from THINC: the same offscreen-then-copy
  // pattern costs Sun Ray pixel traffic because it ignores offscreen
  // semantics (even though uniform-detection may recover a fill, text
  // content defeats it).
  EventLoop loop;
  SunRaySystem sys(&loop, LanDesktopLink(), 256, 256);
  DrawableId pm = sys.api()->CreatePixmap(256, 128);
  sys.api()->FillRect(pm, Rect{0, 0, 256, 128}, kWhite);
  sys.api()->DrawText(pm, Point{10, 10}, "NOT UNIFORM CONTENT", kBlack);
  sys.api()->CopyArea(pm, kScreenDrawable, Rect{0, 0, 256, 128}, Point{0, 0});
  loop.Run();
  EXPECT_GT(sys.BytesToClient(), 2000);  // pixel data, RLE-compressed
  EXPECT_EQ(sys.ClientFramebuffer()->At(128, 64), kWhite);
}

TEST(SunRaySystemTest, ScreenCopyAccelerated) {
  EventLoop loop;
  SunRaySystem sys(&loop, LanDesktopLink(), 128, 128);
  Prng rng(6);
  std::vector<Pixel> noise(64 * 64);
  for (Pixel& p : noise) {
    p = static_cast<Pixel>(rng.Next()) | 0xFF000000;
  }
  DrawableId pm = sys.api()->CreatePixmap(64, 64);
  sys.api()->PutImage(pm, Rect{0, 0, 64, 64}, noise);
  sys.api()->CopyArea(pm, kScreenDrawable, Rect{0, 0, 64, 64}, Point{0, 0});
  loop.Run();
  int64_t before = sys.BytesToClient();
  sys.api()->CopyArea(kScreenDrawable, kScreenDrawable, Rect{0, 0, 64, 64},
                      Point{64, 64});
  loop.Run();
  EXPECT_LT(sys.BytesToClient() - before, 200);  // COPY, not pixels
  int64_t diff = 0;
  Surface expect(*sys.ClientFramebuffer());
  EXPECT_EQ(sys.ClientFramebuffer()->At(70, 70),
            sys.ClientFramebuffer()->At(6, 6));
  (void)diff;
  (void)expect;
}

TEST(RdpSystemTest, ConvergesPixelExact) {
  EventLoop loop;
  RdpSystem sys(&loop, LanDesktopLink(), 160, 120, MakeRdpOptions(false));
  Surface reference = DrawMixedContent(sys.api(), 160, 120);
  loop.Run();
  int64_t diff = 0;
  EXPECT_TRUE(reference.Equals(*sys.ClientFramebuffer(), &diff))
      << diff << " pixels differ";
}

TEST(RdpSystemTest, BitmapCacheSuppressesResends) {
  EventLoop loop;
  RdpSystem sys(&loop, LanDesktopLink(), 256, 128, MakeRdpOptions(false));
  Prng rng(7);
  std::vector<Pixel> image(48 * 48);
  for (Pixel& p : image) {
    p = static_cast<Pixel>(rng.Next()) | 0xFF000000;
  }
  DrawableId pm = sys.api()->CreatePixmap(48, 48);
  sys.api()->PutImage(pm, Rect{0, 0, 48, 48}, image);
  sys.api()->CopyArea(pm, kScreenDrawable, Rect{0, 0, 48, 48}, Point{0, 0});
  loop.Run();
  int64_t first = sys.BytesToClient();
  // The same bitmap again elsewhere: a cache reference, not a payload.
  sys.api()->CopyArea(pm, kScreenDrawable, Rect{0, 0, 48, 48}, Point{60, 0});
  loop.Run();
  int64_t second = sys.BytesToClient() - first;
  EXPECT_LT(second, first / 10);
  // Both placements correct.
  EXPECT_EQ(sys.ClientFramebuffer()->At(5, 5), sys.ClientFramebuffer()->At(65, 5));
}

TEST(RdpSystemTest, IcaClientResizeCostsClientCpuNotBandwidth) {
  // Section 8.3: ICA's client-only resize gives "no improvement in
  // bandwidth consumption" and "noticeably increases latency" — the full
  // data crosses either way, and the slow client pays the resample.
  auto run = [](RdpOptions options) {
    EventLoop loop;
    RdpSystem sys(&loop, Pda80211gLink(), 128, 128, options);
    sys.SetViewport(32, 32);
    loop.Run();
    Prng rng(8);
    std::vector<Pixel> noise(128 * 128);
    for (Pixel& p : noise) {
      p = static_cast<Pixel>(rng.Next()) | 0xFF000000;
    }
    DrawableId pm = sys.api()->CreatePixmap(128, 128);
    sys.api()->PutImage(pm, Rect{0, 0, 128, 128}, noise);
    sys.api()->CopyArea(pm, kScreenDrawable, Rect{0, 0, 128, 128}, Point{0, 0});
    loop.Run();
    return std::pair<int64_t, SimTime>(sys.BytesToClient(),
                                       sys.ClientLastProcessedAt());
  };
  auto [ica_bytes, ica_done] = run(MakeIcaOptions(false));
  auto [rdp_bytes, rdp_done] = run(MakeRdpOptions(false));
  EXPECT_EQ(ica_bytes, rdp_bytes);          // no bandwidth improvement
  EXPECT_GT(ica_done, rdp_done + 500);      // client resample overhead
}

// An RdpSystem whose server end can put crafted orders on the wire.
class RdpWireInjector : public RdpSystem {
 public:
  using RdpSystem::RdpSystem;

  // Order type codes of the RDP wire.
  static constexpr uint8_t kTile = 2;
  static constexpr uint8_t kImage = 4;
  static constexpr uint8_t kImageCached = 5;

  void SendImage(const Rect& rect, int64_t hash, std::span<const Pixel> pixels) {
    std::span<const uint8_t> raw(reinterpret_cast<const uint8_t*>(pixels.data()),
                                 pixels.size() * sizeof(Pixel));
    std::vector<uint8_t> encoded = LzssEncode(raw);
    WireWriter w;
    w.RectVal(rect);
    w.I64(hash);
    w.U32(static_cast<uint32_t>(raw.size()));
    w.U32(static_cast<uint32_t>(encoded.size()));
    w.Bytes(encoded);
    Send(kImage, w.Take());
  }

  void SendImageCached(const Rect& rect, int64_t hash) {
    WireWriter w;
    w.RectVal(rect);
    w.I64(hash);
    Send(kImageCached, w.Take());
  }

  void SendTile(const Region& region, uint16_t tw, uint16_t th) {
    WireWriter w;
    w.RegionVal(region);
    w.PointVal(Point{0, 0});
    w.U16(tw);
    w.U16(th);
    Send(kTile, w.Take());
  }

 private:
  void Send(uint8_t type, const std::vector<uint8_t>& payload) {
    conn_->Send(Transport::kServer, BuildFrame(static_cast<MsgType>(type), payload));
  }
};

TEST(RdpSystemTest, CachedImageRefLargerThanCachedImageDropped) {
  // A 2x2 image goes into the client cache; a cache reference then names it
  // under a 64x64 rect. Applying it would read 4096 pixels out of 4, so the
  // client drops the reference — without a viewport, under RDP's clip and
  // under ICA's client-side resize.
  struct Mode {
    RdpOptions options;
    bool viewport;
  };
  for (const Mode& mode : {Mode{MakeRdpOptions(false), false},
                           Mode{MakeRdpOptions(false), true},
                           Mode{MakeIcaOptions(false), true}}) {
    SCOPED_TRACE(mode.options.name + (mode.viewport ? " viewport" : ""));
    EventLoop loop;
    RdpWireInjector sys(&loop, LanDesktopLink(), 128, 128, mode.options);
    if (mode.viewport) {
      sys.SetViewport(96, 96);
    }
    const std::vector<Pixel> white(4, kWhite);
    sys.SendImage(Rect{0, 0, 2, 2}, 77, white);
    sys.SendImageCached(Rect{0, 0, 64, 64}, 77);
    loop.Run();
    EXPECT_EQ(sys.ClientFramebuffer()->At(0, 0), kWhite);
    EXPECT_EQ(sys.ClientFramebuffer()->At(10, 10), kBlack);
  }
}

TEST(RdpSystemTest, IcaResampleOfEmptyImageDrawsNothing) {
  // A zero-width image still maps onto a non-empty client rect when scaled;
  // there are no pixels to sample, so nothing is drawn.
  EventLoop loop;
  RdpWireInjector sys(&loop, LanDesktopLink(), 128, 128, MakeIcaOptions(false));
  sys.SetViewport(96, 96);
  sys.SendImage(Rect{1, 0, 0, 5}, 78, {});
  loop.Run();
  EXPECT_EQ(sys.ClientFramebuffer()->At(0, 0), kBlack);
}

TEST(RdpSystemTest, EmptyTileFillsNothing) {
  // A 0x5 tile carries no pixel bytes; the client builds an empty tile and
  // the fill draws nothing.
  EventLoop loop;
  RdpWireInjector sys(&loop, LanDesktopLink(), 128, 128, MakeRdpOptions(false));
  sys.SendTile(Region(Rect{0, 0, 64, 64}), 0, 5);
  loop.Run();
  EXPECT_GT(sys.ClientLastProcessedAt(), 0);
  EXPECT_EQ(sys.ClientFramebuffer()->At(0, 0), kBlack);
}

// A SunRaySystem whose server end can put crafted frames on the wire.
class SunRayWireInjector : public SunRaySystem {
 public:
  using SunRaySystem::SunRaySystem;

  // Frame type code of the Sun Ray wire.
  static constexpr uint8_t kRaw = 3;

  // kRaw with the LZSS pixel mode.
  void SendLzssRaw(const Rect& rect, std::span<const Pixel> pixels) {
    std::span<const uint8_t> raw(reinterpret_cast<const uint8_t*>(pixels.data()),
                                 pixels.size() * sizeof(Pixel));
    std::vector<uint8_t> encoded = LzssEncode(raw);
    WireWriter w;
    w.RectVal(rect);
    w.U8(1);
    w.U32(static_cast<uint32_t>(raw.size()));
    w.U32(static_cast<uint32_t>(encoded.size()));
    w.Bytes(encoded);
    conn_->Send(Transport::kServer,
                BuildFrame(static_cast<MsgType>(kRaw), w.Take()));
  }
};

TEST(SunRaySystemTest, LzssRawOfEmptyRectDrawsNothing) {
  EventLoop loop;
  SunRayWireInjector sys(&loop, LanDesktopLink(), 128, 128);
  sys.SendLzssRaw(Rect{4, 4, 0, 6}, {});
  loop.Run();
  EXPECT_GT(sys.ClientLastProcessedAt(), 0);
  EXPECT_EQ(sys.ClientFramebuffer()->At(4, 4), kBlack);
}

// An XSystem whose proxy end can put crafted requests on the wire, in the
// LZSS stream framing every non-NX request uses.
class XWireInjector : public XSystem {
 public:
  using XSystem::XSystem;

  // Request codes of the X wire.
  static constexpr uint8_t kFillTiled = 4;
  static constexpr uint8_t kPutImage = 7;

  void SendFillTiled(const Rect& rect, uint16_t tw, uint16_t th) {
    WireWriter w;
    w.U32(static_cast<uint32_t>(kScreenDrawable));
    w.RectVal(rect);
    w.PointVal(Point{0, 0});
    w.U16(tw);
    w.U16(th);
    Send(kFillTiled, w.Take());
  }

  // A PutImage whose rect is `rect` and whose pixel bytes are absent, as
  // for a zero-area rect.
  void SendEmptyPutImage(const Rect& rect) {
    WireWriter w;
    w.U32(static_cast<uint32_t>(kScreenDrawable));
    w.RectVal(rect);
    Send(kPutImage, w.Take());
  }

 private:
  void Send(uint8_t type, const std::vector<uint8_t>& body) {
    WireWriter out;
    out.U8(1);  // LZSS body codec
    out.U32(static_cast<uint32_t>(body.size()));
    out.Bytes(LzssEncode(body));
    conn_->Send(Transport::kServer,
                BuildFrame(static_cast<MsgType>(type), out.Take()));
  }
};

TEST(XSystemTest, EmptyTileFillsNothing) {
  EventLoop loop;
  XWireInjector sys(&loop, LanDesktopLink(), 128, 128, MakeXOptions());
  sys.SendFillTiled(Rect{0, 0, 64, 64}, 5, 0);
  loop.Run();
  EXPECT_GT(sys.ClientLastProcessedAt(), 0);
  EXPECT_EQ(sys.ClientFramebuffer()->At(0, 0), kBlack);
}

TEST(XSystemTest, PutImageOfEmptyRectDrawsNothing) {
  EventLoop loop;
  XWireInjector sys(&loop, LanDesktopLink(), 128, 128, MakeXOptions());
  sys.SendEmptyPutImage(Rect{2, 2, 7, 0});
  loop.Run();
  EXPECT_GT(sys.ClientLastProcessedAt(), 0);
  EXPECT_EQ(sys.ClientFramebuffer()->At(2, 2), kBlack);
}

TEST(LocalPcTest, RendersLocallyWithoutDisplayTraffic) {
  EventLoop loop;
  LocalPcSystem sys(&loop, LanDesktopLink(), 128, 128);
  sys.api()->FillRect(kScreenDrawable, Rect{0, 0, 128, 128}, kWhite);
  sys.api()->DrawText(kScreenDrawable, Point{10, 10}, "LOCAL", kBlack);
  loop.Run();
  EXPECT_EQ(sys.BytesToClient(), 0);  // no display protocol at all
  EXPECT_EQ(sys.ClientFramebuffer()->At(64, 64), kWhite);
}

TEST(LocalPcTest, FetchContentCrossesNetwork) {
  EventLoop loop;
  LocalPcSystem sys(&loop, LanDesktopLink(), 64, 64);
  sys.FetchContent(100'000);
  loop.Run();
  EXPECT_EQ(sys.BytesToClient(), 100'000);
}

TEST(LocalPcTest, ClickIsImmediate) {
  EventLoop loop;
  LocalPcSystem sys(&loop, LanDesktopLink(), 64, 64);
  bool clicked = false;
  sys.SetInputCallback([&](Point) { clicked = true; });
  sys.ClientClick(Point{1, 1});
  EXPECT_TRUE(clicked);  // same machine: no network hop
}

// --- Multi-core flow-control pins -------------------------------------------
//
// The busy_until() audit: saturation checks ("can the compressor take this
// frame?") must read earliest_free(), and per-request release times must be
// the Charge() return value. These tests pin both aggregates: a single-core
// host under a 1-second backlog drops video frames exactly as before, while
// a dual-core host with one pinned core still converts on the idle core.

TEST(MultiCorePinTest, XSystemSingleCoreStillDropsVideoWhenSaturated) {
  EventLoop loop;
  XSystem sys(&loop, LanDesktopLink(), 160, 120, MakeXOptions());
  sys.app_cpu()->Charge(2e6);  // 1 s of backlog at 2.0x speed
  int32_t stream = sys.api()->VideoStreamCreate(64, 48, Rect{0, 0, 64, 48});
  Yv12Frame frame = Yv12Frame::Allocate(64, 48);
  sys.api()->VideoFrame(stream, frame);
  loop.Run();
  EXPECT_EQ(sys.VideoFrameTimes().size(), 0u) << "saturated core must drop";
}

TEST(MultiCorePinTest, XSystemIdleSecondCoreKeepsConvertingVideo) {
  EventLoop loop;
  XSystemOptions opts = MakeXOptions();
  opts.server_cpu_cores = 2;
  XSystem sys(&loop, LanDesktopLink(), 160, 120, opts);
  sys.app_cpu()->Charge(2e6);  // pins core 0 for 1 s; core 1 idle
  int32_t stream = sys.api()->VideoStreamCreate(64, 48, Rect{0, 0, 64, 48});
  Yv12Frame frame = Yv12Frame::Allocate(64, 48);
  sys.api()->VideoFrame(stream, frame);
  loop.Run();
  EXPECT_EQ(sys.VideoFrameTimes().size(), 1u)
      << "idle core should take the conversion";
}

TEST(MultiCorePinTest, RdpSingleCoreSkipsVideoFallbackWhenSaturated) {
  EventLoop loop;
  RdpSystem sys(&loop, LanDesktopLink(), 160, 120, MakeRdpOptions(false));
  loop.Run();
  const int64_t before = sys.BytesToClient();
  sys.app_cpu()->Charge(2e6);
  std::vector<Pixel> px(32 * 32, MakePixel(10, 20, 30));
  sys.api()->PutImage(kScreenDrawable, Rect{0, 0, 32, 32}, px);
  loop.Run();
  EXPECT_EQ(sys.BytesToClient(), before) << "saturated core must skip";
}

TEST(MultiCorePinTest, RdpIdleSecondCoreStillShipsVideoFallback) {
  EventLoop loop;
  RdpOptions opts = MakeRdpOptions(false);
  opts.server_cpu_cores = 2;
  RdpSystem sys(&loop, LanDesktopLink(), 160, 120, opts);
  loop.Run();
  const int64_t before = sys.BytesToClient();
  sys.app_cpu()->Charge(2e6);
  std::vector<Pixel> px(32 * 32, MakePixel(10, 20, 30));
  sys.api()->PutImage(kScreenDrawable, Rect{0, 0, 32, 32}, px);
  loop.Run();
  EXPECT_GT(sys.BytesToClient(), before)
      << "idle core should take the compression";
}

TEST(MultiCorePinTest, SunRaySingleCoreSkipsVideoFallbackWhenSaturated) {
  EventLoop loop;
  SunRaySystem sys(&loop, LanDesktopLink(), 160, 120, SunRayOptions{});
  loop.Run();
  const int64_t before = sys.BytesToClient();
  sys.app_cpu()->Charge(2e6);
  std::vector<Pixel> px(32 * 32, MakePixel(10, 20, 30));
  sys.api()->PutImage(kScreenDrawable, Rect{0, 0, 32, 32}, px);
  loop.Run();
  EXPECT_EQ(sys.BytesToClient(), before) << "saturated core must skip";
}

TEST(MultiCorePinTest, SunRayIdleSecondCoreStillAnalyzesVideoFallback) {
  EventLoop loop;
  SunRayOptions opts;
  opts.server_cpu_cores = 2;
  SunRaySystem sys(&loop, LanDesktopLink(), 160, 120, opts);
  loop.Run();
  const int64_t before = sys.BytesToClient();
  sys.app_cpu()->Charge(2e6);
  std::vector<Pixel> px(32 * 32, MakePixel(10, 20, 30));
  sys.api()->PutImage(kScreenDrawable, Rect{0, 0, 32, 32}, px);
  loop.Run();
  EXPECT_GT(sys.BytesToClient(), before)
      << "idle core should take the analysis";
}

// NX image requests release at their own encode completion (the Charge()
// return), not the host-wide busy_until() max: work pinned on the OTHER
// core must not delay this request's departure.
TEST(MultiCorePinTest, NxImageReleaseUsesOwnCompletionNotHostMax) {
  std::vector<Pixel> px(64 * 64, MakePixel(200, 100, 50));
  auto run = [&](int cores, double unrelated_backlog_us) {
    EventLoop loop;
    XSystemOptions opts = MakeNxOptions(false);
    opts.server_cpu_cores = cores;
    XSystem sys(&loop, LanDesktopLink(), 160, 120, opts);
    if (unrelated_backlog_us > 0) {
      sys.app_cpu()->Charge(unrelated_backlog_us);  // lands on core 0
    }
    sys.api()->PutImage(kScreenDrawable, Rect{0, 0, 64, 64}, px);
    // PutImage aggregates scanline strips; a follow-up op flushes it.
    sys.api()->FillRect(kScreenDrawable, Rect{0, 100, 8, 8}, kBlack);
    loop.Run();
    return sys.LastDeliveryToClient();
  };
  const SimTime clean = run(2, 0);
  // Dual-core with a 1-second unrelated backlog: the image encodes on the
  // idle core and must arrive at the clean time, not a second late.
  EXPECT_EQ(run(2, 2e6), clean);
  // Single-core control: the same backlog genuinely delays the request.
  EXPECT_GT(run(1, 2e6), clean);
}

TEST(LocalPcTest, VideoPlaysAtFullQualityLocally) {
  EventLoop loop;
  LocalPcSystem sys(&loop, LanDesktopLink(), 128, 96);
  int32_t stream = sys.api()->VideoStreamCreate(64, 48, Rect{0, 0, 128, 96});
  Yv12Frame frame = Yv12Frame::Allocate(64, 48);
  for (int i = 0; i < 10; ++i) {
    sys.api()->VideoFrame(stream, frame);
  }
  sys.api()->VideoStreamDestroy(stream);
  loop.Run();
  EXPECT_EQ(sys.VideoFrameTimes().size(), 10u);
  EXPECT_EQ(sys.BytesToClient(), 0);
}

}  // namespace
}  // namespace thinc
