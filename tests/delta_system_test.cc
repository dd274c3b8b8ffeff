// End-to-end tests for the adaptive inter-frame delta codec (DESIGN.md §15):
// the per-connection reference frame, the bandwidth/RTT-driven selector, and
// their composition with reconnect resync, multi-core determinism, and live
// cluster migration.
//
// The delta rung is lossless (literal blocks re-encode exact pixels), so
// every test closes with a pixel-exact client-vs-screen comparison: whatever
// the selector chose along the way, zero mismatch proves no update was lost
// or approximated.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/baselines/thinc_system.h"
#include "src/cluster/cluster.h"
#include "src/fleet/fleet.h"
#include "src/net/connection.h"
#include "src/net/link.h"
#include "src/telemetry/metrics.h"
#include "src/workload/web.h"

namespace thinc {
namespace {

int64_t DeltaHits() {
  return MetricsRegistry::Get().GetCounter("codec.delta_hits")->value();
}

int64_t ReferenceInvalidations() {
  return MetricsRegistry::Get()
      .GetCounter("codec.reference_invalidations")
      ->value();
}

ThincServerOptions AdaptOn() {
  ThincServerOptions so;
  so.adapt.enabled = true;
  return so;
}

int64_t MismatchedPixels(const Surface& a, const Surface& b) {
  EXPECT_EQ(a.width(), b.width());
  EXPECT_EQ(a.height(), b.height());
  int64_t bad = 0;
  for (int32_t y = 0; y < a.height(); ++y) {
    for (int32_t x = 0; x < a.width(); ++x) {
      if (a.At(x, y) != b.At(x, y)) {
        ++bad;
      }
    }
  }
  return bad;
}

// A desktop-like frame for an `w`x`h` application window: a static textured
// background (photo-like, so the intra codecs cannot collapse it) with a
// small box that moves each round. Consecutive rounds share almost all
// content, so a working delta path sends mostly SKIP runs while the intra
// path re-encodes every pixel.
std::vector<Pixel> WindowFrame(int32_t w, int32_t h, int round) {
  std::vector<Pixel> px(static_cast<size_t>(w) * h);
  for (int32_t y = 0; y < h; ++y) {
    for (int32_t x = 0; x < w; ++x) {
      uint32_t hash = static_cast<uint32_t>(x) * 73856093u ^
                      static_cast<uint32_t>(y) * 19349663u;
      hash *= 2654435761u;
      px[static_cast<size_t>(y) * w + x] =
          MakePixel(static_cast<uint8_t>(hash), static_cast<uint8_t>(hash >> 8),
                    static_cast<uint8_t>(hash >> 16));
    }
  }
  const int32_t bx = (round * 24) % (w - 16);
  const int32_t by = (round * 8) % (h - 16);
  for (int32_t y = by; y < by + 16; ++y) {
    for (int32_t x = bx; x < bx + 16; ++x) {
      px[static_cast<size_t>(y) * w + x] = MakePixel(180, 30, 30);
    }
  }
  return px;
}

// --- WAN single session: selector engages, deltas save bytes -----------------

constexpr int32_t kWinW = 96, kWinH = 64;  // 6144 px: above the delta floor

// Runs one desktop session over the WAN link: a static background, then
// `rounds` repaints of a 96x64 window whose content barely changes. Returns
// the to-client wire bytes. With adapt on, round 0 is intra (the estimator
// has no RTT sample yet) and later rounds go delta against the delivered
// previous frame.
int64_t RunWanDesktop(bool adapt, int rounds) {
  EventLoop loop;
  ThincSystem sys(&loop, WanDesktopLink(), 160, 120,
                  adapt ? AdaptOn() : ThincServerOptions{});
  sys.window_server()->FillRect(kScreenDrawable, Rect{0, 0, 160, 120},
                                MakePixel(30, 60, 90));
  for (int r = 0; r < rounds; ++r) {
    std::vector<Pixel> frame = WindowFrame(kWinW, kWinH, r);
    sys.window_server()->PutImage(kScreenDrawable, Rect{20, 20, kWinW, kWinH},
                                  frame);
    loop.RunUntil(loop.now() + 500 * kMillisecond);
  }
  loop.Run();
  EXPECT_EQ(MismatchedPixels(sys.client()->framebuffer(),
                             sys.window_server()->screen()),
            0);
  return sys.connection()->BytesDeliveredTo(Connection::kClient);
}

TEST(DeltaSystemTest, WanSessionEngagesDeltaAndSavesBytes) {
  const int64_t hits0 = DeltaHits();
  const int64_t delta_bytes = RunWanDesktop(/*adapt=*/true, /*rounds=*/6);
  const int64_t hits_delta = DeltaHits() - hits0;
  EXPECT_GE(hits_delta, 5) << "rounds 1..5 must all pick the delta rung";
  const int64_t intra_bytes = RunWanDesktop(/*adapt=*/false, /*rounds=*/6);
  EXPECT_EQ(DeltaHits() - hits0, hits_delta) << "adapt off must never delta";
  // Five near-identical repaints collapse to SKIP runs: the savings must be
  // structural, not marginal.
  EXPECT_LT(delta_bytes, intra_bytes / 2)
      << "delta=" << delta_bytes << " intra=" << intra_bytes;
}

TEST(DeltaSystemTest, LanClassLinkStaysIntra) {
  // Same session shape on the LAN link: sub-millisecond RTT and 100 Mbit/s
  // keep the selector on intra, so the delta counter must not move.
  EventLoop loop;
  ThincSystem sys(&loop, LanDesktopLink(), 160, 120, AdaptOn());
  const int64_t hits0 = DeltaHits();
  for (int r = 0; r < 4; ++r) {
    sys.window_server()->PutImage(kScreenDrawable, Rect{20, 20, kWinW, kWinH},
                                  WindowFrame(kWinW, kWinH, r));
    loop.RunUntil(loop.now() + 500 * kMillisecond);
  }
  loop.Run();
  EXPECT_EQ(DeltaHits(), hits0);
  EXPECT_EQ(MismatchedPixels(sys.client()->framebuffer(),
                             sys.window_server()->screen()),
            0);
}

// --- Reconnect: reference dropped, re-armed by resync ------------------------

TEST(DeltaSystemTest, ReconnectWithActiveDeltaResyncsExactly) {
  EventLoop loop;
  ThincSystem sys(&loop, WanDesktopLink(), 160, 120, AdaptOn());
  sys.window_server()->FillRect(kScreenDrawable, Rect{0, 0, 160, 120},
                                MakePixel(30, 60, 90));
  const int64_t hits0 = DeltaHits();
  // Warm up until the selector is on the delta rung.
  for (int r = 0; r < 3; ++r) {
    sys.window_server()->PutImage(kScreenDrawable, Rect{20, 20, kWinW, kWinH},
                                  WindowFrame(kWinW, kWinH, r));
    loop.RunUntil(loop.now() + 500 * kMillisecond);
  }
  ASSERT_GT(DeltaHits(), hits0) << "delta never engaged before the cut";
  // One more frame, and cut the wire while it is half-delivered (WAN first
  // delivery is ~33 ms out).
  sys.window_server()->PutImage(kScreenDrawable, Rect{20, 20, kWinW, kWinH},
                                WindowFrame(kWinW, kWinH, 3));
  loop.RunUntil(loop.now() + 36 * kMillisecond);
  const int64_t invalidations0 = ReferenceInvalidations();
  sys.connection()->Reset();
  loop.Run();
  EXPECT_GT(ReferenceInvalidations(), invalidations0)
      << "a dead connection must drop the reference frame";
  // The desktop keeps changing while offline.
  sys.window_server()->PutImage(kScreenDrawable, Rect{20, 20, kWinW, kWinH},
                                WindowFrame(kWinW, kWinH, 4));
  sys.window_server()->DrawText(kScreenDrawable, Point{8, 8}, "back soon",
                                kWhite);
  loop.RunUntil(loop.now() + 500 * kMillisecond);
  // Reconnect: the resync refresh must restore pixel identity even though
  // the pre-cut frames were delta-coded and partially delivered.
  sys.Reconnect(WanDesktopLink());
  loop.Run();
  EXPECT_EQ(MismatchedPixels(sys.client()->framebuffer(),
                             sys.window_server()->screen()),
            0);
  // And the re-armed reference carries new deltas on the new connection.
  const int64_t hits_mid = DeltaHits();
  for (int r = 5; r < 8; ++r) {
    sys.window_server()->PutImage(kScreenDrawable, Rect{20, 20, kWinW, kWinH},
                                  WindowFrame(kWinW, kWinH, r));
    loop.RunUntil(loop.now() + 500 * kMillisecond);
  }
  loop.Run();
  EXPECT_GT(DeltaHits(), hits_mid) << "delta never re-engaged after resync";
  EXPECT_EQ(MismatchedPixels(sys.client()->framebuffer(),
                             sys.window_server()->screen()),
            0);
}

// --- Multi-core determinism with the selector in the loop --------------------

struct AdaptFleetRun {
  std::vector<uint64_t> wire_hash;
  std::vector<int64_t> wire_bytes;
  int64_t delta_hits = 0;
};

// The RunWebFleet shape (multicore_determinism_test.cc) over a WAN link with
// adaptive selection enabled. Each round renders a web page (mixed fills,
// pattern fills, glyph bitmaps — exercising the reference-apply path for
// every command type) plus a textured application window whose RAW repaints
// delta against the previous round. Decisions stay K-invariant because the
// fleet drains between renders: at each render instant the estimator state
// is a function of the (identical) delivered-byte history, and at 100
// Mbit/s the 66 ms RTT alone puts the selector on the delta rung.
AdaptFleetRun RunAdaptFleet(int cores) {
  EventLoop loop;
  FleetOptions fo;
  fo.screen_width = 320;
  fo.screen_height = 240;
  fo.link = LinkParams{100'000'000, 66 * kMillisecond, 1 << 20, "wan"};
  fo.seed = 7;
  fo.cpu_cores = cores;
  fo.cpu_speed = 8.0;  // page encode << RTT: page-0 decisions precede any ack
  fo.degradation_enabled = false;
  fo.send_buffer_bytes = 8 << 20;
  fo.server_options.adapt.enabled = true;
  FleetHost fleet(&loop, fo);
  constexpr int kSessions = 3;
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_EQ(fleet.AddSession({}), FleetHost::Admission::kAdmitted);
  }
  const int64_t hits0 = DeltaHits();
  WebWorkload web(320, 240, /*seed=*/7);
  // Four page rounds followed by two window-only rounds. Page rounds
  // repaint the whole screen, so the window raw that follows diffs against
  // freshly committed page background and falls back to intra — the honest
  // size comparison at work. The window-only rounds diff against the
  // previous round's window frame and take the delta rung.
  constexpr int32_t kPageSequence[] = {0, 0, 1, 1};
  for (int p = 0; p < 6; ++p) {
    for (int i = 0; i < kSessions; ++i) {
      if (p < 4) {
        web.RenderPage(fleet.window_server(i), kPageSequence[p],
                       fleet.host_cpu());
      }
      fleet.window_server(i)->PutImage(kScreenDrawable,
                                       Rect{40, 30, kWinW, kWinH},
                                       WindowFrame(kWinW, kWinH, p));
    }
    loop.RunUntil((p + 1) * 500 * kMillisecond);
  }
  loop.Run();
  AdaptFleetRun out;
  out.delta_hits = DeltaHits() - hits0;
  for (size_t i = 0; i < kSessions; ++i) {
    out.wire_hash.push_back(
        fleet.connection(i)->DeliveredHashTo(Connection::kClient));
    out.wire_bytes.push_back(
        fleet.connection(i)->BytesDeliveredTo(Connection::kClient));
    EXPECT_EQ(MismatchedPixels(fleet.client(i)->framebuffer(),
                               fleet.window_server(i)->screen()),
              0)
        << "session " << i;
  }
  return out;
}

TEST(DeltaSystemTest, WireIdenticalAcrossCoreCountsWithAdaptiveCodec) {
  AdaptFleetRun k1 = RunAdaptFleet(1);
  AdaptFleetRun k2 = RunAdaptFleet(2);
  AdaptFleetRun k4 = RunAdaptFleet(4);
  EXPECT_GT(k1.delta_hits, 0) << "delta never engaged: the run proves nothing";
  EXPECT_EQ(k1.delta_hits, k2.delta_hits);
  EXPECT_EQ(k1.delta_hits, k4.delta_hits);
  EXPECT_EQ(k1.wire_hash, k2.wire_hash);
  EXPECT_EQ(k1.wire_hash, k4.wire_hash);
  EXPECT_EQ(k1.wire_bytes, k2.wire_bytes);
  EXPECT_EQ(k1.wire_bytes, k4.wire_bytes);
  EXPECT_GT(k1.wire_bytes[0], 0) << "empty run proves nothing";
}

// --- Live migration with the delta rung active -------------------------------

ClusterOptions AdaptCluster() {
  ClusterOptions co;
  co.hosts = 2;
  co.host.screen_width = 160;
  co.host.screen_height = 120;
  // 10 Mbit/s, 20 ms: WAN-shaped enough for the delta rung but comfortably
  // above the subsample threshold, so every choice stays lossless.
  co.host.link = LinkParams{10'000'000, 20 * kMillisecond, 64 << 10, "wan-nic"};
  co.host.cpu_speed = 16.0;
  co.host.seed = 11;
  co.host.degradation_enabled = false;
  co.host.server_options.adapt.enabled = true;
  co.migration_enabled = false;  // manual moves only
  return co;
}

TEST(DeltaSystemTest, MigrationWithActiveDeltaLosesNothing) {
  // Identical scheduled draw streams; one run migrates mid-stream with a
  // draw landing while the session is in flight. The handoff drops the
  // reference frame and the differential resync re-arms it on the new host;
  // after quiesce both clients must hold byte-identical framebuffers.
  auto run = [](bool migrate) {
    EventLoop loop;
    ClusterController cluster(&loop, AdaptCluster());
    const int64_t gid = cluster.AddSession({});
    cluster.window_server(gid)->FillRect(kScreenDrawable, Rect{0, 0, 160, 120},
                                         MakePixel(30, 60, 90));
    for (int r = 0; r < 5; ++r) {
      loop.ScheduleAt((r + 1) * 500 * kMillisecond, [&cluster, gid, r] {
        cluster.window_server(gid)->PutImage(kScreenDrawable,
                                             Rect{20, 20, kWinW, kWinH},
                                             WindowFrame(kWinW, kWinH, r));
      });
    }
    if (migrate) {
      // Scheduled BEFORE round 2's draw at the same instant: that draw
      // fires while the handoff is in flight and must not be lost.
      loop.ScheduleAt(1500 * kMillisecond,
                      [&cluster, gid] { cluster.MigrateSession(gid, 1); });
    }
    loop.Run();
    EXPECT_EQ(cluster.MismatchedPixels(gid), 0u);
    if (migrate) {
      EXPECT_EQ(cluster.host_of(gid), 1u);
      EXPECT_EQ(cluster.migrations_completed(), 1);
    }
    return cluster.ClientFramebufferHash(gid);
  };
  const int64_t hits0 = DeltaHits();
  const int64_t invalidations0 = ReferenceInvalidations();
  const uint64_t migrated = run(/*migrate=*/true);
  EXPECT_GT(DeltaHits(), hits0) << "delta never engaged in the migrated run";
  EXPECT_GT(ReferenceInvalidations(), invalidations0)
      << "the handoff must drop the old host's reference";
  const uint64_t stationary = run(/*migrate=*/false);
  EXPECT_EQ(migrated, stationary);
}

}  // namespace
}  // namespace thinc
