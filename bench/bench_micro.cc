// Microbenchmarks (google-benchmark): throughput of the substrate pieces
// the system-level results rest on — codecs, raster ops, region algebra,
// the Fant resampler, and YUV conversion — plus a buffer-architecture
// section that measures server-side data movement of the zero-copy buffers
// over an offscreen-heavy web workload.
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/bench_common.h"
#include "src/telemetry/telemetry.h"
#include "src/codec/delta.h"
#include "src/codec/hextile.h"
#include "src/codec/lzss.h"
#include "src/codec/pnglike.h"
#include "src/codec/rc4.h"
#include "src/codec/rle.h"
#include "src/codec/rle32.h"
#include "src/raster/fant.h"
#include "src/raster/surface.h"
#include "src/raster/yuv.h"
#include "src/baselines/thinc_system.h"
#include "src/util/logging.h"
#include "src/util/prng.h"
#include "src/util/region.h"
#include "src/workload/web.h"

namespace thinc {
namespace {

std::vector<Pixel> ScreenLikePixels(int32_t w, int32_t h) {
  // Mixed content: flat band, gradient band, noise band.
  Prng rng(7);
  std::vector<Pixel> px(static_cast<size_t>(w) * h);
  for (int32_t y = 0; y < h; ++y) {
    for (int32_t x = 0; x < w; ++x) {
      Pixel p;
      if (y < h / 3) {
        p = MakePixel(236, 236, 240);
      } else if (y < 2 * h / 3) {
        p = MakePixel(static_cast<uint8_t>(x), 90, static_cast<uint8_t>(y));
      } else {
        p = static_cast<Pixel>(rng.Next()) | 0xFF000000;
      }
      px[static_cast<size_t>(y) * w + x] = p;
    }
  }
  return px;
}

void BM_Rc4(benchmark::State& state) {
  std::vector<uint8_t> key(16, 0x5A);
  Rc4Cipher cipher(key);
  std::vector<uint8_t> buf(static_cast<size_t>(state.range(0)), 0x42);
  std::vector<uint8_t> out(buf.size());
  for (auto _ : state) {
    cipher.Process(buf, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * buf.size());
}
BENCHMARK(BM_Rc4)->Arg(64 << 10);

void BM_LzssEncode(benchmark::State& state) {
  std::vector<Pixel> px = ScreenLikePixels(256, 256);
  std::span<const uint8_t> bytes(reinterpret_cast<const uint8_t*>(px.data()),
                                 px.size() * 4);
  for (auto _ : state) {
    std::vector<uint8_t> enc = LzssEncode(bytes);
    benchmark::DoNotOptimize(enc.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * bytes.size());
}
BENCHMARK(BM_LzssEncode);

void BM_PngLikeEncode(benchmark::State& state) {
  std::vector<Pixel> px = ScreenLikePixels(256, 256);
  for (auto _ : state) {
    std::vector<uint8_t> enc = PngLikeEncode(px, 256, 256);
    benchmark::DoNotOptimize(enc.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * px.size() * 4);
}
BENCHMARK(BM_PngLikeEncode);

void BM_PngLikeDecode(benchmark::State& state) {
  std::vector<Pixel> px = ScreenLikePixels(256, 256);
  std::vector<uint8_t> enc = PngLikeEncode(px, 256, 256);
  for (auto _ : state) {
    std::vector<Pixel> dec;
    bool ok = PngLikeDecode(enc, 256, 256, &dec);
    benchmark::DoNotOptimize(ok);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * px.size() * 4);
}
BENCHMARK(BM_PngLikeDecode);

void BM_HextileEncode(benchmark::State& state) {
  std::vector<Pixel> px = ScreenLikePixels(256, 256);
  for (auto _ : state) {
    std::vector<uint8_t> enc = HextileEncode(px, 256, 256);
    benchmark::DoNotOptimize(enc.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * px.size() * 4);
}
BENCHMARK(BM_HextileEncode);

void BM_Rle32Encode(benchmark::State& state) {
  std::vector<Pixel> px = ScreenLikePixels(256, 256);
  for (auto _ : state) {
    std::vector<uint8_t> enc = Rle32Encode(px);
    benchmark::DoNotOptimize(enc.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * px.size() * 4);
}
BENCHMARK(BM_Rle32Encode);

void BM_DeltaEncodeSmallChange(benchmark::State& state) {
  // The adaptive rung's common case: one dirty block in an otherwise
  // unchanged frame — the diff walk dominates, the literal encode is tiny.
  std::vector<Pixel> ref = ScreenLikePixels(256, 256);
  std::vector<Pixel> cur = ref;
  cur[128 * 256 + 128] = kBlack;
  for (auto _ : state) {
    std::vector<uint8_t> enc = DeltaEncode(ref, cur, 256, 256);
    benchmark::DoNotOptimize(enc.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * ref.size() * 4);
}
BENCHMARK(BM_DeltaEncodeSmallChange);

void BM_DeltaEncodeScroll(benchmark::State& state) {
  // Worst useful case: everything moved, nothing matches in place — row
  // hashing, vote counting, and COPY verification all run.
  std::vector<Pixel> ref = ScreenLikePixels(256, 256);
  std::vector<Pixel> cur(ref.size());
  std::copy(ref.begin() + 16 * 256, ref.end(), cur.begin());
  std::copy(ref.begin(), ref.begin() + 16 * 256, cur.end() - 16 * 256);
  for (auto _ : state) {
    std::vector<uint8_t> enc = DeltaEncode(ref, cur, 256, 256);
    benchmark::DoNotOptimize(enc.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * ref.size() * 4);
}
BENCHMARK(BM_DeltaEncodeScroll);

void BM_DeltaDecode(benchmark::State& state) {
  std::vector<Pixel> ref = ScreenLikePixels(256, 256);
  std::vector<Pixel> cur = ref;
  for (int32_t y = 96; y < 160; ++y) {
    for (int32_t x = 96; x < 160; ++x) {
      cur[static_cast<size_t>(y) * 256 + x] = kWhite;
    }
  }
  std::vector<uint8_t> enc = DeltaEncode(ref, cur, 256, 256);
  for (auto _ : state) {
    std::vector<Pixel> out;
    bool ok = DeltaDecode(enc, ref, 256, 256, &out);
    benchmark::DoNotOptimize(ok);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * ref.size() * 4);
}
BENCHMARK(BM_DeltaDecode);

// --- SegmentQueue / frame fragmentation --------------------------------------
//
// The socket send path: frames append as zero-copy views and drain in
// MSS-sized pops; a failed partial send prepends the remainder. These ops
// bound how fast the simulator can push bytes through every Connection.

void BM_SegmentQueueAppendPop(benchmark::State& state) {
  const ByteBuffer frame =
      ByteBuffer::Adopt(std::vector<uint8_t>(64 << 10, 0x42));
  SegmentQueue q;
  for (auto _ : state) {
    q.Append(frame.Share());
    while (!q.empty()) {
      ByteBuffer seg = q.PopUpTo(1460);
      benchmark::DoNotOptimize(seg.size());
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * (64 << 10));
}
BENCHMARK(BM_SegmentQueueAppendPop);

void BM_SegmentQueuePartialSendRequeue(benchmark::State& state) {
  // Pop an MSS, send half, put the rest back — the stalled-socket pattern.
  const ByteBuffer frame =
      ByteBuffer::Adopt(std::vector<uint8_t>(16 << 10, 0x42));
  SegmentQueue q;
  for (auto _ : state) {
    q.Append(frame.Share());
    while (!q.empty()) {
      ByteBuffer seg = q.PopUpTo(1460);
      if (seg.size() > 730) {
        q.Prepend(seg.Slice(730, seg.size() - 730));
      }
      benchmark::DoNotOptimize(q.size());
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * (16 << 10));
}
BENCHMARK(BM_SegmentQueuePartialSendRequeue);

void BM_RawCommandSplitOff(benchmark::State& state) {
  // Socket-space-limited commit: a screen-sized RAW splits into send-buffer
  // sized parts, each sharing the original pixel storage.
  std::vector<Pixel> px = ScreenLikePixels(512, 256);
  const Rect rect{0, 0, 512, 256};
  RawCommand base(rect, px);
  PixelBuffer shared = base.SharePayload();
  for (auto _ : state) {
    RawCommand cmd(rect, shared.Share());
    int parts = 0;
    while (auto part = cmd.SplitOff(64 << 10)) {
      ++parts;
      benchmark::DoNotOptimize(part->region().Area());
    }
    benchmark::DoNotOptimize(parts);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * px.size() * 4);
}
BENCHMARK(BM_RawCommandSplitOff);

// --- Telemetry stamp sites ---------------------------------------------------
//
// Every update stamps up to 8 lifecycle points; these two benches bound the
// per-update cost with spans on and confirm the stamp sites collapse to
// no-ops when telemetry is off.

void StampOneUpdate(Telemetry& telemetry, SimTime t) {
  const uint64_t id = telemetry.NewUpdateSpan(1, /*server_pid=*/1, t);
  telemetry.StampPicked(id, t + 1);
  telemetry.StampEncode(id, t + 1, t + 2, /*cache_hit=*/false);
  telemetry.StampCommit(id, t + 3, 1460);
  telemetry.NoteFrameCommitted(id, t + 3);
  telemetry.StampDelivered(id, /*client_pid=*/2, t + 4);
  telemetry.StampDecoded(id, t + 5);
  telemetry.StampDamaged(id, t + 6);
}

void BM_TelemetryStampsOn(benchmark::State& state) {
  Telemetry& telemetry = Telemetry::Get();
  TelemetryConfig cfg;
  cfg.spans = true;
  telemetry.Configure(cfg);
  telemetry.ResetRuntime();
  SimTime t = 0;
  size_t since_reset = 0;
  for (auto _ : state) {
    StampOneUpdate(telemetry, t);
    t += 10;
    if (++since_reset == 4096) {  // bound the span vector
      state.PauseTiming();
      telemetry.ResetRuntime();
      since_reset = 0;
      state.ResumeTiming();
    }
  }
  telemetry.Configure(TelemetryConfig{});
  telemetry.ResetRuntime();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryStampsOn);

void BM_TelemetryStampsOff(benchmark::State& state) {
  Telemetry& telemetry = Telemetry::Get();
  telemetry.Configure(TelemetryConfig{});
  telemetry.ResetRuntime();
  SimTime t = 0;
  for (auto _ : state) {
    StampOneUpdate(telemetry, t);
    t += 10;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryStampsOff);

void BM_SurfaceFill(benchmark::State& state) {
  Surface s(1024, 768);
  for (auto _ : state) {
    s.FillRect(Rect{0, 0, 1024, 768}, kWhite);
    benchmark::DoNotOptimize(s.At(512, 384));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024 * 768 * 4);
}
BENCHMARK(BM_SurfaceFill);

void BM_SurfaceScrollCopy(benchmark::State& state) {
  Surface s(1024, 768);
  for (auto _ : state) {
    s.CopyFrom(s, Rect{0, 8, 1024, 760}, Point{0, 0});
    benchmark::DoNotOptimize(s.At(0, 0));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024 * 760 * 4);
}
BENCHMARK(BM_SurfaceScrollCopy);

void BM_FantDownscale(benchmark::State& state) {
  Surface s(1024, 768);
  std::vector<Pixel> px = ScreenLikePixels(1024, 768);
  s.PutPixels(Rect{0, 0, 1024, 768}, px);
  for (auto _ : state) {
    Surface out = FantResample(s, 320, 240);
    benchmark::DoNotOptimize(out.At(0, 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FantDownscale);

void BM_YuvFrameToRgbFullScreen(benchmark::State& state) {
  Yv12Frame frame = Yv12Frame::Allocate(352, 240);
  for (auto _ : state) {
    Surface out = Yv12ScaleToRgb(frame, 1024, 768);
    benchmark::DoNotOptimize(out.At(0, 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_YuvFrameToRgbFullScreen);

void BM_RegionUnionSweep(benchmark::State& state) {
  Prng rng(3);
  std::vector<Rect> rects;
  for (int i = 0; i < 64; ++i) {
    rects.push_back(Rect{static_cast<int32_t>(rng.NextBelow(900)),
                         static_cast<int32_t>(rng.NextBelow(600)),
                         static_cast<int32_t>(rng.NextInRange(4, 120)),
                         static_cast<int32_t>(rng.NextInRange(4, 90))});
  }
  for (auto _ : state) {
    Region r = Region::FromRects(rects);
    benchmark::DoNotOptimize(r.Area());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_RegionUnionSweep);

void BM_ThincFullPageSimulation(benchmark::State& state) {
  // End-to-end simulator throughput: one web page rendered, translated,
  // scheduled, encrypted, transmitted, and applied at the client.
  for (auto _ : state) {
    EventLoop loop;
    ThincSystem sys(&loop, LanDesktopLink(), 1024, 768);
    WebWorkload workload(1024, 768);
    workload.RenderPage(sys.api(), 1, sys.app_cpu());
    loop.Run();
    benchmark::DoNotOptimize(sys.BytesToClient());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ThincFullPageSimulation);

// --- Buffer architecture ----------------------------------------------------
//
// Translation-and-flush throughput over an offscreen-heavy web workload
// (every page composites through pixmaps, so queue copies, encodes, and
// send-queue traffic dominate server-side data movement), with the
// zero-copy buffer counters: bytes memcpy'd, allocations, shares, peak
// resident payload bytes.

struct BufferRun {
  BufferStats stats;
  int64_t commands = 0;
  double commands_per_sec = 0;
};

BufferRun RunBufferWorkload() {
  // Phase boundary: the section must never bleed counts into the next one —
  // reset the buffer counters, the metrics registry, and any telemetry
  // runtime state together.
  BufferStats::Get().Reset();
  MetricsRegistry::Get().ResetAll();
  Telemetry::Get().ResetRuntime();
  auto t0 = std::chrono::steady_clock::now();
  EventLoop loop;
  ThincSystem sys(&loop, LanDesktopLink(), 1024, 768);
  WebWorkload workload(1024, 768);
  const int32_t pages = 12;
  for (int32_t p = 0; p < pages; ++p) {
    workload.RenderPage(sys.api(), p, sys.app_cpu());
    loop.Run();
  }
  auto t1 = std::chrono::steady_clock::now();
  BufferRun r;
  r.stats = BufferStats::Get();
  r.commands = sys.client()->commands_applied();
  double secs = std::chrono::duration<double>(t1 - t0).count();
  r.commands_per_sec = secs > 0 ? static_cast<double>(r.commands) / secs : 0;
  return r;
}

void RunBufferSection() {
  bench::PrintHeader("Buffer architecture: zero-copy data movement",
                     "(12 offscreen-heavy web pages, LAN link)");
  BufferRun zc = RunBufferWorkload();
  std::printf("zero-copy:   %9.0f commands/sec  (%lld commands)\n",
              zc.commands_per_sec, static_cast<long long>(zc.commands));
  bench::PrintBufferStats("", zc.stats);

  std::FILE* f = std::fopen("BENCH_buffers.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n");
    bench::WriteBufferStatsJson(f, "zero_copy", zc.stats, zc.commands_per_sec);
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_buffers.json\n");
  }
}

// --- Telemetry overhead / zero-cost-when-off invariant ------------------------

struct TelemetryRun {
  int64_t bytes = 0;       // server->client wire bytes
  SimTime end_time = 0;    // virtual time at quiescence
  int64_t commands = 0;    // commands applied at the client
  double wall_secs = 0;
  size_t spans = 0;
  size_t trace_events = 0;
};

TelemetryRun RunTelemetryWorkload(bool telemetry_on) {
  Telemetry& telemetry = Telemetry::Get();
  TelemetryConfig cfg;
  if (telemetry_on) {
    cfg.spans = true;
    cfg.chrome_trace = true;
    cfg.flight_recorder = true;
  }
  telemetry.Configure(cfg);
  telemetry.ResetRuntime();
  MetricsRegistry::Get().ResetAll();
  BufferStats::Get().Reset();
  auto t0 = std::chrono::steady_clock::now();
  EventLoop loop;
  ThincSystem sys(&loop, LanDesktopLink(), 1024, 768);
  WebWorkload workload(1024, 768);
  for (int32_t p = 0; p < 8; ++p) {
    workload.RenderPage(sys.api(), p, sys.app_cpu());
    loop.Run();
  }
  auto t1 = std::chrono::steady_clock::now();
  TelemetryRun r;
  r.bytes = sys.BytesToClient();
  r.end_time = loop.now();
  r.commands = sys.client()->commands_applied();
  r.wall_secs = std::chrono::duration<double>(t1 - t0).count();
  r.spans = telemetry.spans().size();
  r.trace_events = telemetry.events().size();
  telemetry.Configure(TelemetryConfig{});
  telemetry.ResetRuntime();
  return r;
}

void RunTelemetrySection() {
  bench::PrintHeader("Telemetry: overhead and zero-cost-when-off invariant",
                     "(8 web pages, LAN link; off vs spans+trace+recorder)");
  TelemetryRun off = RunTelemetryWorkload(false);
  TelemetryRun on = RunTelemetryWorkload(true);
  // The structural invariant: telemetry never touches wire bytes or virtual
  // time, so a fully instrumented run must be result-identical to a bare one.
  THINC_CHECK_MSG(on.bytes == off.bytes, "telemetry changed wire bytes");
  THINC_CHECK_MSG(on.end_time == off.end_time, "telemetry changed virtual time");
  THINC_CHECK_MSG(on.commands == off.commands, "telemetry changed results");
  std::printf("off: %8.0f KB wire, vtime %.3f s, %.3f s wall\n",
              static_cast<double>(off.bytes) / 1024.0,
              static_cast<double>(off.end_time) / kSecond, off.wall_secs);
  std::printf("on:  %8.0f KB wire, vtime %.3f s, %.3f s wall  "
              "(%zu spans, %zu trace events)\n",
              static_cast<double>(on.bytes) / 1024.0,
              static_cast<double>(on.end_time) / kSecond, on.wall_secs, on.spans,
              on.trace_events);
  std::printf("invariant held: identical wire bytes and virtual time; "
              "wall-clock overhead %.2fx\n",
              off.wall_secs > 0 ? on.wall_secs / off.wall_secs : 0.0);
}

}  // namespace
}  // namespace thinc

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  thinc::RunBufferSection();
  thinc::RunTelemetrySection();
  return 0;
}
