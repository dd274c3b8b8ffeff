// Golden values for every system's measurement surface: the six numbers the
// Section 8 harness reads (bytes to the client, last delivery, client
// processing, displayed video frames, delivered audio) plus a hash of the
// client framebuffer, after a few web pages and a short A/V clip on the LAN,
// WAN and PDA configurations. Restructuring a system without changing its
// architecture must leave every value here unchanged.
#include <gtest/gtest.h>

#include <string>

#include "src/core/audio.h"
#include "src/measure/experiment.h"
#include "src/workload/video.h"
#include "src/workload/web.h"

namespace thinc {
namespace {

struct MeasuredSurface {
  int64_t bytes = 0;
  SimTime last_delivery = 0;
  SimTime processed = 0;
  size_t video_frames = 0;
  int64_t audio_bytes = 0;
  uint64_t fb_hash = 0;
};

uint64_t HashFramebuffer(const Surface* fb) {
  uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ULL;
  };
  if (fb == nullptr) {
    return h;
  }
  mix(static_cast<uint64_t>(fb->width()));
  mix(static_cast<uint64_t>(fb->height()));
  for (Pixel p : fb->pixels()) {
    mix(p);
  }
  return h;
}

// Three pages of the web benchmark's click-render cycle, then a half-second
// full-screen clip with audio, on one system.
MeasuredSurface Drive(SystemKind kind, const ExperimentConfig& config) {
  EventLoop loop;
  std::unique_ptr<RemoteDisplaySystem> sys = MakeSystem(kind, &loop, config);
  if (config.viewport.has_value()) {
    const Point vp = kind == SystemKind::kGotomypc ? Point{640, 480}
                                                   : *config.viewport;
    sys->SetViewport(vp.x, vp.y);
    loop.Run();
  }

  WebWorkload workload(config.screen_width, config.screen_height);
  int32_t current_page = 0;
  RemoteDisplaySystem* s = sys.get();
  sys->SetInputCallback([s, &workload, &current_page](Point) {
    s->FetchContent(workload.page(current_page).content_bytes);
    workload.RenderPage(s->api(), current_page, s->app_cpu());
  });
  for (int32_t i = 0; i < 3; ++i) {
    loop.RunUntil(loop.now() + 300 * kMillisecond);
    current_page = i;
    sys->ClientClick(workload.LinkPosition(i));
    loop.Run();
  }

  const Rect screen{0, 0, config.screen_width, config.screen_height};
  const SimTime duration = 500 * kMillisecond;
  sys->SetVideoProbeRect(screen);
  VideoSourceOptions vo;
  vo.dst = screen;
  vo.duration = duration;
  VideoSource video(&loop, sys->api(), sys->app_cpu(), vo);
  VirtualAudioDriver audio(&loop, PcmFormat{}, 46 * kMillisecond,
                           [s](std::span<const uint8_t> data, SimTime ts) {
                             s->SubmitAudio(data, ts);
                           });
  video.Start();
  if (sys->SupportsAudio()) {
    audio.StartStream(duration);
  }
  loop.Run();

  MeasuredSurface out;
  out.bytes = sys->BytesToClient();
  out.last_delivery = sys->LastDeliveryToClient();
  out.processed = sys->ClientLastProcessedAt();
  out.video_frames = sys->VideoFrameTimes().size();
  out.audio_bytes = sys->AudioBytesDelivered();
  out.fb_hash = HashFramebuffer(sys->ClientFramebuffer());
  return out;
}

struct Golden {
  const char* config;
  SystemKind kind;
  int64_t bytes;
  SimTime last_delivery;
  SimTime processed;
  size_t video_frames;
  int64_t audio_bytes;
  uint64_t fb_hash;
};

// The PDA rows cover the systems that support a viewport.
constexpr Golden kGolden[] = {
    {"LAN", SystemKind::kThinc,
     1889878, 1672679, 1641747, 12, 88196, 0x17F50494BC2C64A6ULL},
    {"LAN", SystemKind::kX,
     6018812, 1903420, 1940612, 7, 88196, 0x622382A8F644EE6FULL},
    {"LAN", SystemKind::kNx,
     487259, 1997680, 2003509, 2, 88196, 0xF4C0C21AEF1ADC8EULL},
    {"LAN", SystemKind::kVnc,
     11281453, 2261636, 2324612, 3, 0, 0x17F50494BC2C64A6ULL},
    {"LAN", SystemKind::kSunRay,
     9596802, 1941899, 1954894, 6, 88196, 0x17F50494BC2C64A6ULL},
    {"LAN", SystemKind::kRdp,
     3764133, 2044167, 2044171, 3, 88196, 0xBF9AA210F4E0D285ULL},
    {"LAN", SystemKind::kIca,
     3126077, 2217194, 2217198, 2, 88196, 0xD5F0D0F074DEFFE4ULL},
    {"LAN", SystemKind::kGotomypc,
     584795, 13096965, 13099518, 2, 0, 0x02A0EB3ECE3D1537ULL},
    {"LAN", SystemKind::kLocalPc,
     119350, 910066, 1369992, 12, 88196, 0x17F50494BC2C64A6ULL},
    {"WAN", SystemKind::kThinc,
     1889878, 2001679, 1970747, 12, 88196, 0x17F50494BC2C64A6ULL},
    {"WAN", SystemKind::kX,
     6018812, 2849231, 2886423, 7, 88196, 0x622382A8F644EE6FULL},
    {"WAN", SystemKind::kNx,
     316623, 2387464, 2392382, 2, 88196, 0xE7368F5D31ACF8E9ULL},
    {"WAN", SystemKind::kVnc,
     3064943, 2441684, 2455642, 3, 0, 0x17F50494BC2C64A6ULL},
    {"WAN", SystemKind::kSunRay,
     3170876, 2177747, 2182958, 3, 88196, 0x09272A24DDAEB2CAULL},
    {"WAN", SystemKind::kRdp,
     3125323, 2491141, 2491145, 2, 88196, 0x95C2AF4EF3B28E76ULL},
    {"WAN", SystemKind::kIca,
     3127081, 2839242, 2845508, 2, 88196, 0x622382A8F644EE6FULL},
    {"WAN", SystemKind::kGotomypc,
     584795, 13475315, 13477868, 2, 0, 0x02A0EB3ECE3D1537ULL},
    {"WAN", SystemKind::kLocalPc,
     119350, 1074566, 1567392, 12, 88196, 0x17F50494BC2C64A6ULL},
    {"PDA", SystemKind::kThinc,
     437470, 1728378, 1693270, 12, 88196, 0x14CE279A56CF22B9ULL},
    {"PDA", SystemKind::kVnc,
     2120330, 1932360, 1938510, 6, 0, 0x8A89C8C066D55F05ULL},
    {"PDA", SystemKind::kRdp,
     3764133, 2561869, 2566686, 3, 88196, 0x0F225B53F2E0C832ULL},
    {"PDA", SystemKind::kIca,
     3126077, 2541208, 2607570, 2, 88196, 0x3402A2BC4A0DD793ULL},
    {"PDA", SystemKind::kGotomypc,
     584795, 13215105, 13280573, 2, 0, 0xE1AF08E953B15C98ULL},
};

void ExpectGolden(const ExperimentConfig& config) {
  int rows = 0;
  for (const Golden& g : kGolden) {
    if (config.name != g.config) {
      continue;
    }
    SCOPED_TRACE(std::string(g.config) + " " + SystemName(g.kind));
    const MeasuredSurface v = Drive(g.kind, config);
    EXPECT_EQ(v.bytes, g.bytes);
    EXPECT_EQ(v.last_delivery, g.last_delivery);
    EXPECT_EQ(v.processed, g.processed);
    EXPECT_EQ(v.video_frames, g.video_frames);
    EXPECT_EQ(v.audio_bytes, g.audio_bytes);
    EXPECT_EQ(v.fb_hash, g.fb_hash);
    ++rows;
  }
  EXPECT_GT(rows, 0);
}

TEST(MeasurementGoldenTest, Lan) { ExpectGolden(LanDesktopConfig()); }

TEST(MeasurementGoldenTest, Wan) { ExpectGolden(WanDesktopConfig()); }

TEST(MeasurementGoldenTest, PdaViewport) { ExpectGolden(Pda80211gConfig()); }

}  // namespace
}  // namespace thinc
