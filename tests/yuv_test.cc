#include "src/raster/yuv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "src/util/prng.h"

namespace thinc {
namespace {

TEST(YuvTest, FrameAllocationSizes) {
  Yv12Frame f = Yv12Frame::Allocate(352, 240);
  EXPECT_EQ(f.width, 352);
  EXPECT_EQ(f.height, 240);
  EXPECT_EQ(f.y.size(), 352u * 240u);
  EXPECT_EQ(f.u.size(), 176u * 120u);
  EXPECT_EQ(f.v.size(), 176u * 120u);
  // The famous 1.5 bytes per pixel.
  EXPECT_EQ(f.byte_size(), 352u * 240u * 3 / 2);
}

TEST(YuvTest, OddDimensionsRoundUp) {
  Yv12Frame f = Yv12Frame::Allocate(3, 5);
  EXPECT_EQ(f.width, 4);
  EXPECT_EQ(f.height, 6);
}

TEST(YuvTest, PackUnpackRoundTrip) {
  Yv12Frame f = Yv12Frame::Allocate(16, 8);
  Prng rng(5);
  for (uint8_t& b : f.y) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (uint8_t& b : f.u) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (uint8_t& b : f.v) {
    b = static_cast<uint8_t>(rng.Next());
  }
  std::vector<uint8_t> packed = f.Pack();
  EXPECT_EQ(packed.size(), f.byte_size());
  Yv12Frame g = Yv12Frame::Unpack(16, 8, packed);
  EXPECT_EQ(g.y, f.y);
  EXPECT_EQ(g.u, f.u);
  EXPECT_EQ(g.v, f.v);
}

TEST(YuvTest, GrayRoundTripsAccurately) {
  // Gray has zero chroma; conversion error should be tiny.
  for (int v = 0; v <= 255; v += 15) {
    Surface s(2, 2, MakePixel(static_cast<uint8_t>(v), static_cast<uint8_t>(v),
                              static_cast<uint8_t>(v)));
    Surface back = Yv12ToRgb(RgbToYv12(s));
    Pixel p = back.At(0, 0);
    EXPECT_NEAR(PixelR(p), v, 4) << "gray " << v;
    EXPECT_NEAR(PixelG(p), v, 4);
    EXPECT_NEAR(PixelB(p), v, 4);
  }
}

TEST(YuvTest, PrimaryColorsRoundTripRoughly) {
  // 4:2:0 subsampling + integer math: expect moderate but bounded error on
  // saturated colors in solid regions (no chroma bleed).
  for (Pixel c : {MakePixel(255, 0, 0), MakePixel(0, 255, 0), MakePixel(0, 0, 255),
                  MakePixel(255, 255, 0)}) {
    Surface s(4, 4, c);
    Surface back = Yv12ToRgb(RgbToYv12(s));
    Pixel p = back.At(1, 1);
    EXPECT_NEAR(PixelR(p), PixelR(c), 24);
    EXPECT_NEAR(PixelG(p), PixelG(c), 24);
    EXPECT_NEAR(PixelB(p), PixelB(c), 24);
  }
}

TEST(YuvTest, ScaleToRgbSize) {
  Yv12Frame f = Yv12Frame::Allocate(352, 240);
  Surface out = Yv12ScaleToRgb(f, 1024, 768);
  EXPECT_EQ(out.width(), 1024);
  EXPECT_EQ(out.height(), 768);
}

TEST(YuvTest, ScaleConstantFrameStaysConstant) {
  Surface s(32, 32, MakePixel(100, 150, 200));
  Yv12Frame f = RgbToYv12(s);
  Surface big = Yv12ScaleToRgb(f, 128, 96);
  Pixel corner = big.At(0, 0);
  Pixel center = big.At(64, 48);
  EXPECT_EQ(corner, center);
}

// Reference model of the overlay: a per-pixel loop, one divide per pixel,
// that scales to the whole rect and clips to the surface.
void NaiveScaleInto(const Yv12Frame& frame, Surface* dst, const Rect& rect) {
  int32_t cw = frame.width / 2;
  for (int32_t dy = 0; dy < rect.height; ++dy) {
    int32_t sy = static_cast<int32_t>(static_cast<int64_t>(dy) * frame.height /
                                      rect.height);
    for (int32_t dx = 0; dx < rect.width; ++dx) {
      int32_t sx = static_cast<int32_t>(static_cast<int64_t>(dx) * frame.width /
                                        rect.width);
      if (!dst->bounds().Contains(Point{rect.x + dx, rect.y + dy})) {
        continue;
      }
      int32_t c = frame.y[static_cast<size_t>(sy) * frame.width + sx];
      size_t ci = static_cast<size_t>(sy / 2) * cw + sx / 2;
      int32_t d = frame.u[ci] - 128;
      int32_t e = frame.v[ci] - 128;
      auto clamp = [](int32_t v) { return static_cast<uint8_t>(std::clamp(v, 0, 255)); };
      dst->Put(rect.x + dx, rect.y + dy,
               MakePixel(clamp(c + ((359 * e) >> 8)),
                         clamp(c - ((88 * d + 183 * e) >> 8)),
                         clamp(c + ((454 * d) >> 8))));
    }
  }
}

Yv12Frame RandomFrame(int32_t w, int32_t h, uint64_t seed) {
  Yv12Frame f = Yv12Frame::Allocate(w, h);
  Prng rng(seed);
  for (std::vector<uint8_t>* plane : {&f.y, &f.u, &f.v}) {
    for (uint8_t& b : *plane) {
      b = static_cast<uint8_t>(rng.Next());
    }
  }
  return f;
}

TEST(YuvTest, ScaleIntoMatchesNaiveReference) {
  struct Case {
    int32_t fw, fh;  // frame
    int32_t sw, sh;  // destination surface
    Rect rect;
  };
  const Case cases[] = {
      {352, 240, 1024, 768, Rect{0, 0, 1024, 768}},   // the A/V workload
      {352, 240, 200, 150, Rect{3, 5, 177, 97}},      // downscale
      {7, 5, 64, 48, Rect{1, 2, 53, 37}},             // odd frame, odd rect
      {33, 17, 40, 40, Rect{0, 0, 29, 41}},           // odd frame, clipped
      {64, 48, 16, 16, Rect{9, 4, 1, 1}},             // 1x1 output
      {64, 48, 100, 80, Rect{-30, -20, 160, 120}},    // overhangs every edge
      {64, 48, 100, 80, Rect{60, 50, 128, 96}},       // overhangs right/bottom
      {64, 48, 100, 80, Rect{100, 0, 50, 50}},        // fully off the right
      {64, 48, 100, 80, Rect{-60, -60, 50, 50}},      // fully off the top-left
  };
  uint64_t seed = 1;
  for (const Case& c : cases) {
    Yv12Frame f = RandomFrame(c.fw, c.fh, seed++);
    Surface want(c.sw, c.sh, MakePixel(1, 2, 3));
    Surface got(c.sw, c.sh, MakePixel(1, 2, 3));
    NaiveScaleInto(f, &want, c.rect);
    Yv12ScaleInto(f, &got, c.rect);
    int64_t diff = 0;
    EXPECT_TRUE(got.Equals(want, &diff))
        << c.fw << "x" << c.fh << " -> " << c.rect.x << "," << c.rect.y << " "
        << c.rect.width << "x" << c.rect.height << ": " << diff << " pixels differ";
  }
}

TEST(YuvTest, ScaleToRgbMatchesNaiveReference) {
  for (auto [w, h] : {std::pair{1024, 768}, std::pair{100, 61}, std::pair{1, 1}}) {
    Yv12Frame f = RandomFrame(352, 240, static_cast<uint64_t>(w));
    Surface want(w, h);
    NaiveScaleInto(f, &want, want.bounds());
    EXPECT_TRUE(Yv12ScaleToRgb(f, w, h).Equals(want)) << w << "x" << h;
  }
}

TEST(YuvTest, DownscaleHalvesPlanes) {
  Yv12Frame f = Yv12Frame::Allocate(64, 48);
  Yv12Frame d = Yv12Downscale(f, 32, 24);
  EXPECT_EQ(d.width, 32);
  EXPECT_EQ(d.height, 24);
  EXPECT_EQ(d.byte_size(), 32u * 24u * 3 / 2);
}

TEST(YuvTest, DownscaleAveragesLuma) {
  Yv12Frame f = Yv12Frame::Allocate(4, 2);
  // Left half 0, right half 200.
  for (int32_t y = 0; y < 2; ++y) {
    f.y[static_cast<size_t>(y) * 4 + 0] = 0;
    f.y[static_cast<size_t>(y) * 4 + 1] = 0;
    f.y[static_cast<size_t>(y) * 4 + 2] = 200;
    f.y[static_cast<size_t>(y) * 4 + 3] = 200;
  }
  Yv12Frame d = Yv12Downscale(f, 2, 2);
  EXPECT_EQ(d.y[0], 0);
  EXPECT_EQ(d.y[1], 200);
}

TEST(YuvTest, DownscaleBandwidthMatchesPaperPdaNumbers) {
  // 352x240 YV12 at 24 fps is ~24 Mbps (the paper's desktop number); scaled
  // by the PDA factor (320/1024) it drops to a few Mbps (paper: 3.5 Mbps).
  Yv12Frame f = Yv12Frame::Allocate(352, 240);
  double desktop_mbps = static_cast<double>(f.byte_size()) * 8 * 24 / 1e6;
  EXPECT_NEAR(desktop_mbps, 24.3, 0.5);
  Yv12Frame pda = Yv12Downscale(f, 352 * 320 / 1024, 240 * 320 / 1024);
  double pda_mbps = static_cast<double>(pda.byte_size()) * 8 * 24 / 1e6;
  EXPECT_LT(pda_mbps, 4.0);
  EXPECT_GT(pda_mbps, 1.0);
}

}  // namespace
}  // namespace thinc
