// Heterogeneous device matrix: per-device-class interactive quality and the
// mixed-population capacity argument.
//
// The paper evaluates one client class on clean pipes; a deployed host
// serves a MATRIX of devices — PC desktops, smartphone-class remote
// displays on lossy WAN paths, Pi-class terminals — each with its own
// panel, decode CPU, input cadence, and degradation ladder. This bench
// measures two things that matrix changes:
//
//   1. Device-class table — one session per canonical profile
//      (desktop / phone / terminal), driven by ITS OWN replayable input
//      trace (typing bursts, flick scrolls, sparse kiosk taps). Reports
//      per-class update latency (p50/p95 of queued->applied spans), bytes
//      shipped, retransmission count on the lossy path, and decode CPU.
//   2. Mixed-vs-uniform capacity sweep — N web sessions on one NIC-bound
//      host, all-desktop vs a 1/3-desktop / 1/3-phone / 1/3-terminal mix.
//      Phone viewports are a quarter of the hosted area, so the shared
//      NIC carries proportionally less and the capacity knee of the mixed
//      population sits at or beyond the uniform-desktop knee.
//
// Emits BENCH_devices.json. `--smoke` runs the scripts/check.sh gate: the
// device-class table twice at short duration, THINC_CHECKing that the two
// passes produce byte-identical JSON (the determinism contract for the
// device tier) and that the phone arm negotiated its panel and actually
// saw loss.
#include "bench/bench_common.h"

#include <algorithm>
#include <cstdarg>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "src/device/device.h"
#include "src/fleet/fleet.h"
#include "src/net/lossy.h"
#include "src/telemetry/telemetry.h"
#include "src/util/logging.h"
#include "src/workload/input_trace.h"
#include "src/workload/web.h"

using namespace thinc;

namespace {

constexpr int32_t kScreenW = 512;
constexpr int32_t kScreenH = 384;
constexpr uint64_t kSeed = 13;
constexpr double kKneeMs = 1000.0;

LinkParams AccessLan() {
  return LinkParams{100'000'000, 20 * kMillisecond, 1 << 20, "device-lan"};
}

// The NIC-bound sweep link (the scarce resource of the capacity argument).
LinkParams FleetNic() {
  return LinkParams{1'000'000, 20 * kMillisecond, 256 << 10, "device-nic"};
}

// Phone profile scaled to the bench host: canonical smartphone class,
// ladder, loss model, and decode speed, with a quarter-area panel of the
// hosted desktop and the session link left to the shared NIC.
DeviceProfile BenchPhone() {
  DeviceProfile p = SmartphoneProfile();
  p.screen_width = kScreenW / 2;
  p.screen_height = kScreenH / 2;
  p.link.reset();
  return p;
}

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

// --- Device-class table ------------------------------------------------------

struct ClassRun {
  const char* name = "";
  size_t events = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  int64_t bytes = 0;
  int64_t segments_lost = 0;  // lossy-path retransmissions; 0 on clean wires
  SimTime decode_busy = 0;
  int32_t view_w = 0;
  int32_t view_h = 0;
};

// One session of `profile` on an otherwise idle host, driven by the
// profile's own input cadence for `duration` of virtual time. Keystrokes
// echo a glyph-sized update, scrolls repaint a content band, taps load a
// full web page — the per-class interactive mix.
ClassRun RunDeviceClass(const char* name, const DeviceProfile& profile,
                        SimTime duration) {
  Telemetry& telemetry = Telemetry::Get();
  TelemetryConfig tcfg;
  tcfg.spans = true;
  telemetry.Configure(tcfg);
  telemetry.ResetRuntime();
  MetricsRegistry::Get().ResetAll();

  EventLoop loop;
  FleetOptions fo;
  fo.screen_width = kScreenW;
  fo.screen_height = kScreenH;
  fo.link = AccessLan();
  fo.cpu_speed = 16.0;
  fo.seed = kSeed;
  fo.degradation_enabled = false;
  FleetHost fleet(&loop, fo);
  THINC_CHECK(fleet.AddSession({}, /*weight=*/1, /*local=*/false, profile) ==
              FleetHost::Admission::kAdmitted);

  WebWorkload web(kScreenW, kScreenH, kSeed);
  std::deque<InputEventKind> kinds;
  int page = 0;
  int band = 0;
  fleet.SetInputCallback(0, [&](Point p) {
    THINC_CHECK(!kinds.empty());
    const InputEventKind kind = kinds.front();
    kinds.pop_front();
    WindowServer* ws = fleet.window_server(0);
    switch (kind) {
      case InputEventKind::kKeystroke:
        // One typed glyph at the caret.
        ws->FillRect(kScreenDrawable, Rect{p.x, p.y, 8, 16},
                     MakePixel(20, 20, 20));
        break;
      case InputEventKind::kScroll:
        // A flick shifts a content band into view.
        ws->FillRect(kScreenDrawable,
                     Rect{0, (band++ % 6) * (kScreenH / 6), kScreenW,
                          kScreenH / 6},
                     MakePixel(static_cast<uint8_t>(40 + 30 * (band % 5)),
                               120, 180));
        break;
      case InputEventKind::kTap:
        // A navigation tap loads the next page.
        web.RenderPage(ws, page++ % web.page_count(), fleet.host_cpu());
        break;
    }
  });

  InputTraceOptions to;
  to.cadence = profile.cadence;
  to.duration = duration;
  to.seed = kSeed;
  to.screen_width = profile.screen_width > 0 ? profile.screen_width : kScreenW;
  to.screen_height =
      profile.screen_height > 0 ? profile.screen_height : kScreenH;
  const std::vector<InputEvent> trace = GenerateInputTrace(to);
  ReplayInputTrace(&loop, trace, [&fleet, &kinds](const InputEvent& e) {
    kinds.push_back(e.kind);
    fleet.ClientClick(0, e.location);
  });
  loop.Run();

  ClassRun r;
  r.name = name;
  r.events = trace.size();
  r.bytes = fleet.transport(0)->BytesDeliveredTo(Transport::kClient);
  if (fleet.transport(0)->kind() == TransportKind::kLossy) {
    r.segments_lost =
        static_cast<LossyTransport*>(fleet.transport(0))->segments_lost();
  }
  r.decode_busy = fleet.session(0)->client_cpu->total_busy();
  r.view_w = fleet.client(0)->framebuffer().width();
  r.view_h = fleet.client(0)->framebuffer().height();
  std::vector<int64_t> lat;
  for (const UpdateSpan& s : telemetry.spans()) {
    if (s.completed()) {
      lat.push_back(s.damaged.ts - s.queued.ts);
    }
  }
  r.p50_ms = static_cast<double>(bench::PercentileUs(lat, 0.50)) / kMillisecond;
  r.p95_ms = static_cast<double>(bench::PercentileUs(lat, 0.95)) / kMillisecond;
  telemetry.Configure(TelemetryConfig{});
  telemetry.ResetRuntime();
  return r;
}

std::vector<ClassRun> RunDeviceTable(SimTime duration) {
  return {
      RunDeviceClass("desktop", DesktopProfile(), duration),
      RunDeviceClass("phone", SmartphoneProfile(), duration),
      RunDeviceClass("terminal", PiTerminalProfile(), duration),
  };
}

std::string DeviceTableJson(const std::vector<ClassRun>& table,
                            SimTime duration) {
  std::string j;
  AppendF(&j, "  \"trace_duration_us\": %lld,\n  \"device_classes\": [\n",
          static_cast<long long>(duration));
  for (size_t i = 0; i < table.size(); ++i) {
    const ClassRun& r = table[i];
    AppendF(&j,
            "    {\"class\": \"%s\", \"events\": %zu, \"p50_ms\": %.3f, "
            "\"p95_ms\": %.3f, \"bytes\": %lld, \"segments_lost\": %lld, "
            "\"decode_busy_us\": %lld, \"viewport\": \"%dx%d\"}%s\n",
            r.name, r.events, r.p50_ms, r.p95_ms,
            static_cast<long long>(r.bytes),
            static_cast<long long>(r.segments_lost),
            static_cast<long long>(r.decode_busy), r.view_w, r.view_h,
            i + 1 < table.size() ? "," : "");
  }
  AppendF(&j, "  ]");
  return j;
}

// --- Mixed-vs-uniform capacity sweep -----------------------------------------

constexpr SimTime kThink = 1500 * kMillisecond;

DeviceProfile SweepProfile(int i, bool mixed) {
  if (!mixed) {
    return DesktopProfile();
  }
  switch (i % 3) {
    case 1:
      return BenchPhone();
    case 2:
      return PiTerminalProfile();
    default:
      return DesktopProfile();
  }
}

struct FleetRun {
  int n = 0;
  bool mixed = false;
  double pooled_p95_ms = 0;
  int64_t nic_bytes = 0;
  int64_t spans_completed = 0;
};

// Open-loop web fleet: every session clicks through `pages` pages at the
// same staggered cadence; only the population composition changes.
FleetRun RunPopulation(int n, bool mixed, int pages) {
  Telemetry& telemetry = Telemetry::Get();
  TelemetryConfig tcfg;
  tcfg.spans = true;
  telemetry.Configure(tcfg);
  telemetry.ResetRuntime();
  MetricsRegistry::Get().ResetAll();

  EventLoop loop;
  FleetOptions fo;
  fo.screen_width = kScreenW;
  fo.screen_height = kScreenH;
  fo.link = FleetNic();
  fo.cpu_speed = 16.0;
  fo.send_buffer_bytes = 32 << 10;
  fo.seed = kSeed;
  fo.degradation_enabled = false;  // raw capacity, not degraded capacity
  FleetHost fleet(&loop, fo);
  for (int i = 0; i < n; ++i) {
    THINC_CHECK(fleet.AddSession({}, /*weight=*/1, /*local=*/false,
                                 SweepProfile(i, mixed)) ==
                FleetHost::Admission::kAdmitted);
  }
  WebWorkload web(kScreenW, kScreenH, kSeed);
  std::vector<int> next_page(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    const size_t id = static_cast<size_t>(i);
    fleet.SetInputCallback(id, [&fleet, &web, &next_page, id](Point) {
      const int32_t page = static_cast<int32_t>(
          (static_cast<int>(id) * 7 + next_page[id]) % web.page_count());
      ++next_page[id];
      web.RenderPage(fleet.window_server(id), page, fleet.host_cpu());
    });
  }
  const SimTime stagger = kThink / n;
  SimTime last_click = 0;
  for (int i = 0; i < n; ++i) {
    for (int p = 0; p < pages; ++p) {
      const SimTime t = i * stagger + p * kThink;
      last_click = std::max(last_click, t);
      const size_t id = static_cast<size_t>(i);
      loop.ScheduleAt(t, [&fleet, &web, id, p] {
        fleet.ClientClick(id, web.LinkPosition(p % web.page_count()));
      });
    }
  }
  fleet.StartController(last_click + 5 * kSecond);
  loop.Run();

  FleetRun r;
  r.n = n;
  r.mixed = mixed;
  for (int i = 0; i < n; ++i) {
    r.nic_bytes += fleet.transport(static_cast<size_t>(i))
                       ->BytesDeliveredTo(Transport::kClient);
  }
  std::vector<int64_t> pooled;
  for (const UpdateSpan& s : telemetry.spans()) {
    if (s.completed()) {
      ++r.spans_completed;
      pooled.push_back(s.damaged.ts - s.queued.ts);
    }
  }
  r.pooled_p95_ms =
      static_cast<double>(bench::PercentileUs(std::move(pooled), 0.95)) / kMillisecond;
  telemetry.Configure(TelemetryConfig{});
  telemetry.ResetRuntime();
  return r;
}

std::vector<int> SweepSizes() {
  std::vector<int> sizes = {3, 6, 9, 12, 15};
  const char* env = std::getenv("THINC_FLEET_MAX_N");
  if (env != nullptr && std::atoi(env) > 0) {
    const int max_n = std::atoi(env);
    std::erase_if(sizes, [max_n](int s) { return s > max_n; });
  }
  return sizes;
}

int Knee(const std::vector<FleetRun>& runs, bool mixed) {
  int best = 0;
  for (const FleetRun& r : runs) {
    if (r.mixed == mixed && r.pooled_p95_ms <= kKneeMs) {
      best = std::max(best, r.n);
    }
  }
  return best;
}

// --- Smoke gate (scripts/check.sh) -------------------------------------------

int RunSmoke() {
  bench::PrintHeader("Device smoke: matrix determinism gate",
                     "(device-class table twice; JSON must be byte-identical)");
  // Long enough for the phone's Gilbert-Elliott chain to visit the bad state
  // and force a retransmission (the loss gate below); still well under a
  // second of wall clock.
  constexpr SimTime kSmokeDuration = 25 * kSecond;
  const std::vector<ClassRun> first = RunDeviceTable(kSmokeDuration);
  const std::vector<ClassRun> second = RunDeviceTable(kSmokeDuration);
  const std::string a = DeviceTableJson(first, kSmokeDuration);
  const std::string b = DeviceTableJson(second, kSmokeDuration);
  THINC_CHECK_MSG(a == b,
                  "device-class table changed between identical reruns; the "
                  "device tier's determinism contract is broken");
  const ClassRun& phone = first[1];
  THINC_CHECK_MSG(phone.view_w == SmartphoneProfile().screen_width &&
                      phone.view_h == SmartphoneProfile().screen_height,
                  "phone session did not negotiate its panel viewport");
  THINC_CHECK_MSG(phone.segments_lost > 0,
                  "phone session saw no loss — the lossy WAN path is not "
                  "engaged");
  std::printf("device table identical across reruns (%zu classes); phone at "
              "%dx%d with %lld retransmissions — matrix gate holds\n",
              first.size(), phone.view_w, phone.view_h,
              static_cast<long long>(phone.segments_lost));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    return RunSmoke();
  }

  bench::PrintHeader(
      "Heterogeneous device matrix: per-class quality and mixed capacity",
      "(trace-driven class table; then uniform-vs-mixed population sweep)");

  // -- Device-class table --
  constexpr SimTime kTableDuration = 40 * kSecond;
  const std::vector<ClassRun> table = RunDeviceTable(kTableDuration);
  std::printf("\n-- One session per class, %lld s of its own input trace --\n",
              static_cast<long long>(kTableDuration / kSecond));
  std::printf("%-10s %8s %10s %10s %12s %10s %12s %10s\n", "class", "events",
              "p50_ms", "p95_ms", "KB", "lost", "decode_ms", "viewport");
  for (const ClassRun& r : table) {
    std::printf("%-10s %8zu %10.1f %10.1f %12.1f %10lld %12.1f %7dx%d\n",
                r.name, r.events, r.p50_ms, r.p95_ms,
                static_cast<double>(r.bytes) / 1024.0,
                static_cast<long long>(r.segments_lost),
                static_cast<double>(r.decode_busy) / kMillisecond, r.view_w,
                r.view_h);
  }
  THINC_CHECK_MSG(table[1].segments_lost > 0,
                  "phone class must run over the lossy path");
  THINC_CHECK_MSG(table[2].decode_busy > table[0].decode_busy,
                  "terminal's slower decode CPU must show in busy time");

  // -- Mixed-vs-uniform sweep --
  std::printf("\n-- Fleet on a %.0f Mbps NIC: uniform desktops vs "
              "desktop/phone/terminal mix --\n",
              static_cast<double>(FleetNic().bandwidth_bps) / 1'000'000);
  std::printf("%4s %9s %14s %14s %10s\n", "N", "mix", "pooled_p95_ms",
              "nic_bytes", "updates");
  const int pages = 3;
  std::vector<FleetRun> runs;
  for (int n : SweepSizes()) {
    for (bool mixed : {false, true}) {
      FleetRun r = RunPopulation(n, mixed, pages);
      std::printf("%4d %9s %14.1f %14lld %10lld\n", r.n,
                  r.mixed ? "mixed" : "uniform", r.pooled_p95_ms,
                  static_cast<long long>(r.nic_bytes),
                  static_cast<long long>(r.spans_completed));
      std::fflush(stdout);
      runs.push_back(r);
    }
  }
  const int knee_uniform = Knee(runs, /*mixed=*/false);
  const int knee_mixed = Knee(runs, /*mixed=*/true);
  std::printf("capacity knee (largest N with pooled p95 <= %.0f ms): "
              "uniform-desktop -> %d sessions, mixed -> %d sessions\n",
              kKneeMs, knee_uniform, knee_mixed);
  THINC_CHECK_MSG(knee_mixed >= knee_uniform,
                  "mixed population must hold the knee at or beyond the "
                  "uniform-desktop knee: phone viewports ship less");

  std::string json = "{\n";
  json += DeviceTableJson(table, kTableDuration);
  json += ",\n";
  AppendF(&json,
          "  \"fleet\": {\n    \"nic_bps\": %lld, \"pages_per_session\": %d, "
          "\"knee_uniform_desktop\": %d, \"knee_mixed\": %d,\n"
          "    \"sweep\": [\n",
          static_cast<long long>(FleetNic().bandwidth_bps), pages,
          knee_uniform, knee_mixed);
  for (size_t i = 0; i < runs.size(); ++i) {
    const FleetRun& r = runs[i];
    AppendF(&json,
            "      {\"n\": %d, \"mixed\": %s, \"p95_ms\": %.3f, "
            "\"nic_bytes\": %lld, \"updates_completed\": %lld}%s\n",
            r.n, r.mixed ? "true" : "false", r.pooled_p95_ms,
            static_cast<long long>(r.nic_bytes),
            static_cast<long long>(r.spans_completed),
            i + 1 < runs.size() ? "," : "");
  }
  json += "    ]\n  }\n}\n";
  std::FILE* f = std::fopen("BENCH_devices.json", "w");
  if (f != nullptr) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\nwrote BENCH_devices.json\n");
  }
  std::printf(
      "\nExpected shape: the phone pays latency for its lossy WAN path but\n"
      "ships far fewer bytes through its quarter-area viewport; the terminal\n"
      "matches desktop bytes at roughly double the decode time; and the mixed\n"
      "population's capacity knee sits at or beyond the uniform-desktop knee.\n");
  return 0;
}
