// Server robustness: the server side of the untrusted-bytes contract. A
// THINC server reads client messages off the network, so random message
// types, truncated payloads, extreme input coordinates and a storm of
// hostile viewport sizes must all be survived (the sanitizer preset makes
// any UB on these paths fatal) — and a client that finally asks for the
// full screen again must converge to it pixel for pixel.
//
// Bytes enter through the Connection from the client side, encryption off,
// exactly as client_robustness_test.cc feeds the client.
#include <gtest/gtest.h>

#include <cstdint>

#include "src/baselines/thinc_system.h"
#include "src/util/prng.h"

namespace thinc {
namespace {

constexpr int32_t kScreenW = 128;
constexpr int32_t kScreenH = 96;

std::vector<uint8_t> InputPayload(Point p) {
  WireWriter w;
  w.PointVal(p);
  w.I32(1);
  w.I64(0);
  return w.Take();
}

std::vector<uint8_t> ResizePayload(int32_t w, int32_t h) {
  WireWriter msg;
  msg.I32(w);
  msg.I32(h);
  return msg.Take();
}

struct ServerHarness {
  explicit ServerHarness(bool adapt)
      : sys(&loop, LanDesktopLink(), kScreenW, kScreenH, MakeOptions(adapt)) {
    loop.Run();
  }

  static ThincServerOptions MakeOptions(bool adapt) {
    ThincServerOptions o;
    o.encrypt = false;  // the client side follows the server's setting
    o.adapt.enabled = adapt;
    return o;
  }

  // Sends raw bytes from the client end and drains the loop.
  void Inject(std::span<const uint8_t> bytes) {
    sys.connection()->Send(Connection::kClient, bytes);
    loop.Run();
  }

  void Resize(int32_t w, int32_t h) {
    Inject(BuildFrame(MsgType::kResizeViewport, ResizePayload(w, h)));
  }

  void Draw(Prng& rng) {
    const Rect r{static_cast<int32_t>(rng.NextBelow(kScreenW)),
                 static_cast<int32_t>(rng.NextBelow(kScreenH)),
                 static_cast<int32_t>(rng.NextInRange(1, 64)),
                 static_cast<int32_t>(rng.NextInRange(1, 48))};
    const Pixel color = static_cast<Pixel>(rng.Next()) | 0xFF000000;
    WindowServer* ws = sys.window_server();
    switch (rng.NextBelow(3)) {
      case 0:
        ws->FillRect(kScreenDrawable, r, color);
        break;
      case 1: {
        std::vector<Pixel> px(static_cast<size_t>(r.width) * r.height);
        for (Pixel& p : px) {
          p = static_cast<Pixel>(rng.Next()) | 0xFF000000;
        }
        ws->PutImage(kScreenDrawable, r, px);
        break;
      }
      default:
        ws->CopyArea(kScreenDrawable, kScreenDrawable, r, Point{r.y, r.x});
        break;
    }
  }

  int64_t MismatchedPixels() {
    const Surface& screen = sys.window_server()->screen();
    const Surface& fb = sys.client()->framebuffer();
    EXPECT_EQ(fb.width(), screen.width());
    EXPECT_EQ(fb.height(), screen.height());
    int64_t bad = 0;
    for (int32_t y = 0; y < screen.height(); ++y) {
      for (int32_t x = 0; x < screen.width(); ++x) {
        bad += screen.At(x, y) != fb.At(x, y) ? 1 : 0;
      }
    }
    return bad;
  }

  EventLoop loop;
  ThincSystem sys;
};

// Random type bytes with random payloads, drawing in between: the server
// ignores what it cannot parse and keeps serving the session.
void FuzzThenConverge(bool adapt, uint64_t seed) {
  ServerHarness h(adapt);
  Prng rng(seed);
  for (int i = 0; i < 200; ++i) {
    std::vector<uint8_t> payload(rng.NextInRange(0, 64));
    for (uint8_t& b : payload) {
      b = static_cast<uint8_t>(rng.Next());
    }
    h.Inject(BuildFrame(static_cast<MsgType>(rng.NextBelow(256)), payload));
    if (i % 10 == 0) {
      h.Draw(rng);
    }
  }
  h.Resize(kScreenW, kScreenH);
  EXPECT_EQ(h.MismatchedPixels(), 0) << "seed " << seed;
}

TEST(ServerWireFuzzTest, RandomClientMessagesNeverCrash) {
  for (uint64_t seed : {1, 2, 3}) {
    FuzzThenConverge(/*adapt=*/false, seed);
    FuzzThenConverge(/*adapt=*/true, seed);
  }
}

TEST(ServerWireFuzzTest, TruncatedClientPayloadsIgnored) {
  for (bool adapt : {false, true}) {
    ServerHarness h(adapt);
    Prng rng(5);
    std::vector<Point> seen;
    h.sys.server()->SetInputHandler(
        [&seen](Point p, int32_t) { seen.push_back(p); });
    const std::vector<uint8_t> input = InputPayload(Point{10, 5});
    const std::vector<uint8_t> resize = ResizePayload(32, 24);
    for (size_t cut = 0; cut < input.size(); ++cut) {
      h.Inject(BuildFrame(MsgType::kInput,
                          std::span<const uint8_t>(input).first(cut)));
    }
    for (size_t cut = 0; cut < resize.size(); ++cut) {
      h.Inject(BuildFrame(MsgType::kResizeViewport,
                          std::span<const uint8_t>(resize).first(cut)));
      h.Draw(rng);
    }
    // An update request carries no payload; extra bytes are ignored.
    h.Inject(BuildFrame(MsgType::kUpdateRequest, std::vector<uint8_t>{7}));
    EXPECT_TRUE(seen.empty());
    h.Inject(BuildFrame(MsgType::kInput, input));
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], (Point{10, 5}));
    h.Resize(kScreenW, kScreenH);
    EXPECT_EQ(h.MismatchedPixels(), 0);
  }
}

TEST(ServerWireFuzzTest, TruncatedClientFramesNeverCrash) {
  // A frame cut inside its envelope leaves the parser waiting for the
  // rest; nothing is dispatched from the partial bytes.
  const std::vector<std::vector<uint8_t>> frames = {
      BuildFrame(MsgType::kInput, InputPayload(Point{3, 4})),
      BuildFrame(MsgType::kResizeViewport, ResizePayload(1, 1)),
      BuildFrame(MsgType::kUpdateRequest, std::vector<uint8_t>{}),
  };
  for (const std::vector<uint8_t>& frame : frames) {
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      ServerHarness h(/*adapt=*/false);
      std::vector<Point> seen;
      h.sys.server()->SetInputHandler(
          [&seen](Point p, int32_t) { seen.push_back(p); });
      h.Inject(std::span<const uint8_t>(frame).first(cut));
      h.sys.window_server()->FillRect(kScreenDrawable, Rect{0, 0, 8, 8},
                                      kWhite);
      h.loop.Run();
      EXPECT_TRUE(seen.empty());
      EXPECT_TRUE(h.sys.server()->connected());
    }
  }
}

TEST(ServerWireFuzzTest, ExtremeRawInputCoordinatesDropped) {
  ServerHarness h(/*adapt=*/false);
  std::vector<Point> seen;
  h.sys.server()->SetInputHandler(
      [&seen](Point p, int32_t) { seen.push_back(p); });
  for (int32_t x : {INT32_MIN, -1, 0, kScreenW, INT32_MAX}) {
    for (int32_t y : {INT32_MIN, -1, 0, kScreenH, INT32_MAX}) {
      if (x == 0 && y == 0) {
        continue;
      }
      h.Inject(BuildFrame(MsgType::kInput, InputPayload(Point{x, y})));
    }
  }
  EXPECT_TRUE(seen.empty());
  // The same storm under a scaled viewport: the unscale stays in range.
  h.Resize(kScreenW / 4, kScreenH / 4);
  h.Inject(BuildFrame(MsgType::kInput, InputPayload(Point{INT32_MAX, 1})));
  h.Inject(BuildFrame(MsgType::kInput, InputPayload(Point{1, INT32_MIN})));
  h.Inject(BuildFrame(MsgType::kInput, InputPayload(Point{0, 0})));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], (Point{0, 0}));
}

TEST(ServerWireFuzzTest, ResizeStormThenFullScreenConverges) {
  const std::vector<std::pair<int32_t, int32_t>> sizes = {
      {1, 1}, {1, INT32_MAX}, {INT32_MAX, 1}, {kScreenW, kScreenH}, {0, 5},
      {-7, INT32_MIN}, {INT32_MIN, INT32_MIN}, {INT32_MAX, INT32_MAX}, {kScreenW / 2, 3}};
  for (bool adapt : {false, true}) {
    ServerHarness h(adapt);
    Prng rng(adapt ? 11 : 12);
    for (int round = 0; round < 4; ++round) {
      for (const auto& [w, hgt] : sizes) {
        h.Resize(w, hgt);
        h.Draw(rng);
        h.loop.Run();
        h.Inject(BuildFrame(MsgType::kUpdateRequest, std::vector<uint8_t>{}));
      }
    }
    h.Resize(kScreenW, kScreenH);
    EXPECT_EQ(h.MismatchedPixels(), 0) << "adapt " << adapt;
    // And the session carries on normally at full size.
    h.Draw(rng);
    h.loop.Run();
    EXPECT_EQ(h.MismatchedPixels(), 0) << "adapt " << adapt;
  }
}

}  // namespace
}  // namespace thinc
