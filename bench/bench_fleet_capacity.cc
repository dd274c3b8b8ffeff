// Fleet capacity: sessions-per-host sweep on a shared-CPU / shared-NIC
// multi-tenant THINC host (src/fleet).
//
// The paper's scaling claim — one server "can maintain a large number of
// active thin clients" (Section 2) — is a capacity statement, so this bench
// measures the capacity knee directly: N sessions share one host NIC and
// one host CPU, each session loads web pages on an open-loop schedule
// (clicks fire on time whether or not the previous page finished, so
// overload shows up as queueing rather than as a slower click rate), and we
// report per-session p95 update latency and delivery quality as N sweeps
// over {1, 4, 16, 64}, with the overload-degradation ladder off and on.
//
// Expected shape: below the knee the ladder is inert and both runs match;
// beyond the knee the ladder-off fleet's p95 balloons super-linearly with
// offered load while the ladder-on fleet sheds fidelity (flush stretch,
// tighter backlog cap, video decimation) and keeps the latency growth
// sub-linear. The admission controller's predicted capacity (from measured
// N=1 demand) is printed next to the measured knee.
//
// Latency comes from telemetry lifecycle spans grouped by each session
// server's Chrome-trace pid — one pid per session — which is also the
// structural check that fleet telemetry attribution works. Emits
// BENCH_fleet.json (byte-identical across runs: everything is virtual-time
// deterministic) and TRACE_fleet.json (N=4 web run, Perfetto-loadable).
//
// `--smoke` runs the scripts/check.sh gate instead: an 8-session fleet run
// twice, telemetry fully off vs fully on, THINC_CHECKing that wire bytes
// and virtual time are identical (telemetry must never perturb results).
#include "bench/bench_common.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "src/fleet/fleet.h"
#include "src/telemetry/telemetry.h"
#include "src/util/logging.h"
#include "src/workload/video.h"
#include "src/workload/web.h"

using namespace thinc;

namespace {

// Per-session screens are small (a fleet host serves many modest desktops;
// also keeps the N=64 point affordable).
constexpr int32_t kScreenW = 512;
constexpr int32_t kScreenH = 384;
constexpr uint64_t kFleetSeed = 11;
constexpr SimTime kThink = 1500 * kMillisecond;  // open-loop click period

// Host NICs sized so the knee lands inside the sweep: web pages at this
// geometry offer ~0.13 Mbps/session, video ~1.2 Mbps/session.
LinkParams WebNic() {
  return LinkParams{1'000'000, 20 * kMillisecond, 256 << 10, "fleet-nic"};
}
LinkParams VideoNic() {
  return LinkParams{10'000'000, 20 * kMillisecond, 256 << 10, "fleet-nic"};
}

// The web host is CPU-provisioned like a real multi-tenant server (browser
// layout is cheap relative to the shared downlink), so past the knee the
// binding resource is the NIC -- the one the degradation ladder can shed.
constexpr double kWebCpuSpeed = 16.0;

// The CPU-bound sweep inverts the provisioning: a 100 Mbps NIC that never
// binds and a deliberately slow host CPU, so the knee is set by render +
// encode cycles and adding cores (FleetOptions::cpu_cores) moves it.
constexpr double kCpuBoundSpeed = 0.25;
LinkParams CpuBoundNic() {
  return LinkParams{100'000'000, 20 * kMillisecond, 256 << 10, "fleet-nic"};
}
// A run counts as below the knee while pooled p95 stays under this; with
// open-loop clicks, oversubscribed runs queue without bound and blow past
// it by seconds.
constexpr double kCpuKneeMs = 1000.0;

int PagesPerSession() {
  const char* env = std::getenv("THINC_FLEET_PAGES");
  if (env != nullptr && std::atoi(env) > 0) {
    return std::atoi(env);
  }
  return 6;
}

std::vector<int> CapSizes(std::vector<int> sizes) {
  const char* env = std::getenv("THINC_FLEET_MAX_N");
  if (env != nullptr && std::atoi(env) > 0) {
    const int max_n = std::atoi(env);
    std::erase_if(sizes, [max_n](int n) { return n > max_n; });
  }
  return sizes;
}

std::vector<int> SweepSizes() { return CapSizes({1, 4, 16, 64}); }
// Bracketing the expected K=1 (~6) and K=2 (~11) CPU knees.
std::vector<int> CpuSweepSizes() { return CapSizes({1, 2, 4, 6, 8, 12}); }

double Ms(int64_t us) { return static_cast<double>(us) / kMillisecond; }

// --- Web sweep ---------------------------------------------------------------

struct WebRun {
  int n = 0;
  int cores = 1;
  bool ladder = false;
  SimTime end_vtime = 0;
  SimTime host_cpu_busy = 0;       // host-local microseconds
  int64_t wire_bytes = 0;          // all sessions, server->client
  std::vector<int64_t> session_bytes;
  // Lifecycle-span latency (queued -> client framebuffer damage).
  double pooled_p95_ms = 0;
  double median_session_p95_ms = 0;
  double worst_session_p95_ms = 0;
  int64_t spans_total = 0;
  int64_t spans_completed = 0;
  int64_t spans_evicted = 0;  // overwritten in the backlog before sending
  int max_degrade_level = 0;
  int64_t degradations = 0;
};

WebRun RunWebFleet(int n, bool ladder, const TelemetryConfig& tcfg,
                   int pages_per_session, const char* trace_path = nullptr,
                   int cpu_cores = 1, double cpu_speed = kWebCpuSpeed,
                   LinkParams nic = WebNic()) {
  Telemetry& telemetry = Telemetry::Get();
  telemetry.Configure(tcfg);
  telemetry.ResetRuntime();
  MetricsRegistry::Get().ResetAll();

  EventLoop loop;
  FleetOptions fo;
  fo.screen_width = kScreenW;
  fo.screen_height = kScreenH;
  fo.link = nic;
  fo.cpu_speed = cpu_speed;
  fo.cpu_cores = cpu_cores;
  // Sockets sized for the shared link, not the 256 KiB desktop default:
  // bytes committed to a socket are un-sheddable, so a fleet host keeps
  // them within a couple of seconds of a fair per-session drain share.
  fo.send_buffer_bytes = 32 << 10;
  fo.seed = kFleetSeed;
  fo.degradation_enabled = ladder;
  // Sub-knee click pileups park up to a few pages of backlog (~0.8 s of
  // wire); only genuine oversubscription grows past a second. Sample fast
  // so the ladder engages before too much full-fidelity traffic commits.
  fo.control_interval = 50 * kMillisecond;
  fo.overload_lag = 1 * kSecond;
  // The sweep deliberately over-admits (zero declared demand) so overload is
  // reachable; the admission math is reported separately via
  // PredictedCapacity on the measured N=1 demand.
  FleetHost fleet(&loop, fo);
  WebWorkload web(kScreenW, kScreenH, kFleetSeed);
  std::vector<int> next_page(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    THINC_CHECK(fleet.AddSession({}) == FleetHost::Admission::kAdmitted);
  }
  for (int i = 0; i < n; ++i) {
    const size_t id = static_cast<size_t>(i);
    fleet.SetInputCallback(id, [&fleet, &web, &next_page, id](Point) {
      // Each session walks its own offset into the page suite.
      const int32_t page = static_cast<int32_t>(
          (static_cast<int>(id) * 7 + next_page[id]) % web.page_count());
      ++next_page[id];
      web.RenderPage(fleet.window_server(id), page, fleet.host_cpu());
    });
  }
  // Open-loop arrivals: session i clicks at i*stagger + p*think, on schedule
  // regardless of whether the previous page has finished delivering.
  const SimTime stagger = kThink / n;
  SimTime last_click = 0;
  for (int i = 0; i < n; ++i) {
    for (int p = 0; p < pages_per_session; ++p) {
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

  WebRun r;
  r.n = n;
  r.cores = cpu_cores;
  r.ladder = ladder;
  r.end_vtime = loop.now();
  r.host_cpu_busy = fleet.host_cpu()->total_busy();
  std::map<int, size_t> pid_to_session;
  for (int i = 0; i < n; ++i) {
    const size_t id = static_cast<size_t>(i);
    const int64_t bytes =
        fleet.connection(id)->BytesDeliveredTo(Connection::kClient);
    r.session_bytes.push_back(bytes);
    r.wire_bytes += bytes;
    pid_to_session[fleet.server(id)->telemetry_pid()] = id;
    r.max_degrade_level =
        std::max(r.max_degrade_level, fleet.degradation_level(id));
  }
  if (tcfg.spans) {
    std::vector<std::vector<int64_t>> per_session(static_cast<size_t>(n));
    std::vector<int64_t> pooled;
    for (const UpdateSpan& s : telemetry.spans()) {
      ++r.spans_total;
      if (s.evicted) {
        ++r.spans_evicted;
      }
      if (!s.completed()) {
        continue;
      }
      ++r.spans_completed;
      const int64_t latency = s.damaged.ts - s.queued.ts;
      pooled.push_back(latency);
      auto it = pid_to_session.find(s.server_pid);
      if (it != pid_to_session.end()) {
        per_session[it->second].push_back(latency);
      }
    }
    std::vector<int64_t> p95s;
    for (auto& v : per_session) {
      p95s.push_back(bench::PercentileUs(std::move(v), 0.95));
    }
    r.pooled_p95_ms = Ms(bench::PercentileUs(std::move(pooled), 0.95));
    r.median_session_p95_ms = Ms(bench::PercentileUs(p95s, 0.50));
    r.worst_session_p95_ms = Ms(bench::PercentileUs(p95s, 1.0));
  }
  r.max_degrade_level = std::max<int>(
      r.max_degrade_level,
      static_cast<int>(
          MetricsRegistry::Get().GetGauge("fleet.degrade_level")->max()));
  r.degradations =
      MetricsRegistry::Get().GetCounter("fleet.degradations")->value();
  if (trace_path != nullptr && tcfg.chrome_trace) {
    if (telemetry.WriteChromeTrace(trace_path)) {
      std::printf("wrote %s (one pid per session; load in Perfetto)\n",
                  trace_path);
    }
  }
  telemetry.Configure(TelemetryConfig{});
  telemetry.ResetRuntime();
  return r;
}

// --- Video sweep -------------------------------------------------------------

struct VideoRun {
  int n = 0;
  bool ladder = false;
  SimTime end_vtime = 0;
  int64_t wire_bytes = 0;
  int32_t frames_emitted = 0;    // all sessions
  int32_t frames_delivered = 0;  // arrived at clients
  int64_t frames_decimated = 0;  // shed by the ladder
  double delivered_fraction = 0;
  double median_session_p95_ms = 0;  // frame delay, server ts -> client arrival
  double worst_session_p95_ms = 0;
  int max_degrade_level = 0;
};

VideoRun RunVideoFleet(int n, bool ladder) {
  Telemetry& telemetry = Telemetry::Get();
  telemetry.Configure(TelemetryConfig{});
  telemetry.ResetRuntime();
  MetricsRegistry::Get().ResetAll();

  EventLoop loop;
  FleetOptions fo;
  fo.screen_width = kScreenW;
  fo.screen_height = kScreenH;
  fo.link = VideoNic();
  fo.seed = kFleetSeed;
  fo.degradation_enabled = ladder;
  // Video pressure builds within a clip, not across minutes: degrade on the
  // first hot tick so a 3-second clip can show the ladder. Frame bursts are
  // tens of milliseconds deep, so a 100 ms lag already means oversubscribed.
  fo.ticks_to_degrade = 1;
  fo.overload_lag = 100 * kMillisecond;
  FleetHost fleet(&loop, fo);
  for (int i = 0; i < n; ++i) {
    THINC_CHECK(fleet.AddSession({}) == FleetHost::Admission::kAdmitted);
  }
  VideoSourceOptions vo;
  vo.width = 176;
  vo.height = 144;
  vo.fps = 12.0;
  vo.duration = 3 * kSecond;
  vo.dst = Rect{0, 0, 176, 144};
  std::vector<std::unique_ptr<VideoSource>> sources;
  for (int i = 0; i < n; ++i) {
    const size_t id = static_cast<size_t>(i);
    sources.push_back(std::make_unique<VideoSource>(
        &loop, fleet.window_server(id), fleet.host_cpu(), vo));
  }
  // Stagger starts within one frame interval so sessions are out of phase
  // (in-phase frame bursts would synchronize the NIC queue artificially).
  const SimTime frame_interval = sources[0]->frame_interval();
  for (int i = 0; i < n; ++i) {
    VideoSource* src = sources[static_cast<size_t>(i)].get();
    loop.ScheduleAt(i * frame_interval / n, [src] { src->Start(); });
  }
  fleet.StartController(vo.duration + 2 * kSecond);
  loop.Run();

  VideoRun r;
  r.n = n;
  r.ladder = ladder;
  r.end_vtime = loop.now();
  std::vector<int64_t> p95s;
  for (int i = 0; i < n; ++i) {
    const size_t id = static_cast<size_t>(i);
    r.wire_bytes += fleet.connection(id)->BytesDeliveredTo(Connection::kClient);
    r.frames_emitted += sources[id]->frames_emitted();
    r.frames_decimated += fleet.server(id)->video_frames_decimated();
    std::vector<int64_t> delays;
    for (const VideoFrameArrival& f : fleet.client(id)->video_frames()) {
      delays.push_back(f.time - f.server_timestamp);
    }
    r.frames_delivered += static_cast<int32_t>(delays.size());
    p95s.push_back(bench::PercentileUs(std::move(delays), 0.95));
    r.max_degrade_level =
        std::max(r.max_degrade_level, fleet.degradation_level(id));
  }
  r.delivered_fraction =
      r.frames_emitted > 0
          ? static_cast<double>(r.frames_delivered) / r.frames_emitted
          : 0.0;
  r.median_session_p95_ms = Ms(bench::PercentileUs(p95s, 0.50));
  r.worst_session_p95_ms = Ms(bench::PercentileUs(p95s, 1.0));
  r.max_degrade_level = std::max<int>(
      r.max_degrade_level,
      static_cast<int>(
          MetricsRegistry::Get().GetGauge("fleet.degrade_level")->max()));
  return r;
}

// --- Output ------------------------------------------------------------------

void PrintWebRow(const WebRun& r) {
  std::printf("%4d %7s %14.1f %16.1f %16.1f %10lld %9lld %6d\n", r.n,
              r.ladder ? "on" : "off", r.pooled_p95_ms, r.median_session_p95_ms,
              r.worst_session_p95_ms, static_cast<long long>(r.spans_completed),
              static_cast<long long>(r.spans_evicted), r.max_degrade_level);
  std::fflush(stdout);
}

void PrintVideoRow(const VideoRun& r) {
  std::printf("%4d %7s %16.1f %16.1f %11.3f %10d %10lld %6d\n", r.n,
              r.ladder ? "on" : "off", r.median_session_p95_ms,
              r.worst_session_p95_ms, r.delivered_fraction, r.frames_delivered,
              static_cast<long long>(r.frames_decimated), r.max_degrade_level);
  std::fflush(stdout);
}

void WriteWebRunJson(std::FILE* f, const WebRun& r) {
  std::fprintf(f,
               "      {\"n\": %d, \"cores\": %d, \"ladder\": %s, \"p95_ms\": %.3f, "
               "\"median_session_p95_ms\": %.3f, \"worst_session_p95_ms\": "
               "%.3f, \"updates_completed\": %lld, \"updates_evicted\": %lld, "
               "\"wire_bytes\": %lld, \"end_vtime_us\": %lld, "
               "\"host_cpu_busy_us\": %lld, \"max_degrade_level\": %d, "
               "\"degradations\": %lld}",
               r.n, r.cores, r.ladder ? "true" : "false", r.pooled_p95_ms,
               r.median_session_p95_ms, r.worst_session_p95_ms,
               static_cast<long long>(r.spans_completed),
               static_cast<long long>(r.spans_evicted),
               static_cast<long long>(r.wire_bytes),
               static_cast<long long>(r.end_vtime),
               static_cast<long long>(r.host_cpu_busy), r.max_degrade_level,
               static_cast<long long>(r.degradations));
}

void WriteVideoRunJson(std::FILE* f, const VideoRun& r) {
  std::fprintf(f,
               "      {\"n\": %d, \"ladder\": %s, \"median_session_p95_ms\": "
               "%.3f, \"worst_session_p95_ms\": %.3f, \"delivered_fraction\": "
               "%.4f, \"frames_emitted\": %d, \"frames_delivered\": %d, "
               "\"frames_decimated\": %lld, \"wire_bytes\": %lld, "
               "\"max_degrade_level\": %d}",
               r.n, r.ladder ? "true" : "false", r.median_session_p95_ms,
               r.worst_session_p95_ms, r.delivered_fraction, r.frames_emitted,
               r.frames_delivered, static_cast<long long>(r.frames_decimated),
               static_cast<long long>(r.wire_bytes), r.max_degrade_level);
}

// --- Smoke gate (scripts/check.sh) -------------------------------------------

int RunSmoke() {
  bench::PrintHeader("Fleet smoke: telemetry on/off result identity",
                     "(8 sessions, 2 pages each; wire bytes and vtime must match)");
  TelemetryConfig off;
  TelemetryConfig on;
  on.spans = true;
  on.chrome_trace = true;
  on.flight_recorder = true;
  WebRun a = RunWebFleet(8, /*ladder=*/true, off, /*pages_per_session=*/2);
  WebRun b = RunWebFleet(8, /*ladder=*/true, on, /*pages_per_session=*/2);
  THINC_CHECK_MSG(a.end_vtime == b.end_vtime,
                  "telemetry changed fleet virtual time");
  THINC_CHECK_MSG(a.session_bytes == b.session_bytes,
                  "telemetry changed fleet wire bytes");
  std::printf("8-session fleet: %lld wire bytes, vtime %.3f s — identical "
              "with telemetry off and fully on\n",
              static_cast<long long>(a.wire_bytes),
              static_cast<double>(a.end_vtime) / kSecond);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    return RunSmoke();
  }
  const int pages = PagesPerSession();
  const std::vector<int> sizes = SweepSizes();

  bench::PrintHeader(
      "Fleet capacity: sessions per host, shared CPU + shared NIC",
      "(open-loop web clicks + video clips; degradation ladder off vs on)");
  std::printf("per-session screen %dx%d, %d pages/session, think %.1f s, "
              "web NIC %lld Mbps, video NIC %lld Mbps\n",
              kScreenW, kScreenH, pages,
              static_cast<double>(kThink) / kSecond,
              static_cast<long long>(WebNic().bandwidth_bps / 1'000'000),
              static_cast<long long>(VideoNic().bandwidth_bps / 1'000'000));

  // Measured N=1 demand feeds the admission controller's capacity
  // prediction, reported next to the measured knee.
  TelemetryConfig spans_only;
  spans_only.spans = true;
  WebRun ref = RunWebFleet(1, /*ladder=*/true, spans_only, pages);
  FleetSessionDemand demand;
  const double ref_secs = static_cast<double>(ref.end_vtime) / kSecond;
  demand.cpu_us_per_sec = ref_secs > 0
                              ? static_cast<double>(ref.host_cpu_busy) *
                                    kWebCpuSpeed / ref_secs
                              : 0;
  demand.nic_bytes_per_sec =
      ref_secs > 0 ? static_cast<int64_t>(
                         static_cast<double>(ref.wire_bytes) / ref_secs)
                   : 0;
  int predicted = 0;
  {
    EventLoop loop;
    FleetOptions fo;
    fo.link = WebNic();
    fo.cpu_speed = kWebCpuSpeed;
    FleetHost probe(&loop, fo);
    predicted = probe.PredictedCapacity(demand);
  }
  std::printf("\nmeasured N=1 demand: %.0f ref-cpu-us/s, %lld NIC B/s  ->  "
              "admission-predicted capacity: %d sessions\n",
              demand.cpu_us_per_sec,
              static_cast<long long>(demand.nic_bytes_per_sec), predicted);

  std::printf("\n-- Web (update latency: scheduler insert -> client damage) --\n");
  std::printf("%4s %7s %14s %16s %16s %10s %9s %6s\n", "N", "ladder",
              "pooled_p95_ms", "median_sess_p95", "worst_sess_p95", "updates",
              "evicted", "level");
  std::vector<WebRun> web_runs;
  for (int n : sizes) {
    for (bool ladder : {false, true}) {
      const bool trace = ladder && n == 4;
      TelemetryConfig cfg = spans_only;
      cfg.chrome_trace = trace;
      WebRun r = RunWebFleet(n, ladder, cfg, pages,
                             trace ? "TRACE_fleet.json" : nullptr);
      PrintWebRow(r);
      web_runs.push_back(std::move(r));
    }
  }

  // CPU-bound sweep: same open-loop web clicks, but the NIC never binds and
  // the host CPU does — the knee is render+encode cycles, so modeling K=2
  // cores (parallel encode slices + a second lane for independent sessions)
  // must move it outward. Ladder off: this measures raw capacity, not
  // degraded capacity.
  std::printf("\n-- CPU-bound web (%.0f Mbps NIC, %.2fx host CPU, K cores) --\n",
              static_cast<double>(CpuBoundNic().bandwidth_bps) / 1'000'000,
              kCpuBoundSpeed);
  std::printf("%4s %5s %14s %16s %16s %10s\n", "N", "cores", "pooled_p95_ms",
              "median_sess_p95", "worst_sess_p95", "updates");
  std::vector<WebRun> cpu_runs;
  for (int cores : {1, 2}) {
    for (int n : CpuSweepSizes()) {
      WebRun r = RunWebFleet(n, /*ladder=*/false, spans_only, pages,
                             /*trace_path=*/nullptr, cores, kCpuBoundSpeed,
                             CpuBoundNic());
      std::printf("%4d %5d %14.1f %16.1f %16.1f %10lld\n", r.n, r.cores,
                  r.pooled_p95_ms, r.median_session_p95_ms,
                  r.worst_session_p95_ms,
                  static_cast<long long>(r.spans_completed));
      std::fflush(stdout);
      cpu_runs.push_back(std::move(r));
    }
  }
  auto cpu_knee = [&cpu_runs](int cores) {
    int best = 0;
    for (const WebRun& r : cpu_runs) {
      if (r.cores == cores && r.pooled_p95_ms <= kCpuKneeMs) {
        best = std::max(best, r.n);
      }
    }
    return best;
  };
  const int knee_k1 = cpu_knee(1);
  const int knee_k2 = cpu_knee(2);
  std::printf("CPU-bound knee (largest N with p95 <= %.0f ms): "
              "K=1 -> %d sessions, K=2 -> %d sessions\n",
              kCpuKneeMs, knee_k1, knee_k2);

  std::printf("\n-- Video (frame delay: server timestamp -> client arrival) --\n");
  std::printf("%4s %7s %16s %16s %11s %10s %10s %6s\n", "N", "ladder",
              "median_sess_p95", "worst_sess_p95", "delivered", "frames",
              "decimated", "level");
  std::vector<VideoRun> video_runs;
  for (int n : sizes) {
    for (bool ladder : {false, true}) {
      VideoRun r = RunVideoFleet(n, ladder);
      PrintVideoRow(r);
      video_runs.push_back(std::move(r));
    }
  }

  std::FILE* f = std::fopen("BENCH_fleet.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"config\": {\"screen\": [%d, %d], "
                 "\"pages_per_session\": %d, \"think_ms\": %lld, "
                 "\"web_nic_bps\": %lld, \"video_nic_bps\": %lld},\n",
                 kScreenW, kScreenH, pages,
                 static_cast<long long>(kThink / kMillisecond),
                 static_cast<long long>(WebNic().bandwidth_bps),
                 static_cast<long long>(VideoNic().bandwidth_bps));
    std::fprintf(f,
                 "  \"demand\": {\"cpu_us_per_sec\": %.1f, "
                 "\"nic_bytes_per_sec\": %lld},\n"
                 "  \"predicted_capacity\": %d,\n",
                 demand.cpu_us_per_sec,
                 static_cast<long long>(demand.nic_bytes_per_sec), predicted);
    std::fprintf(f, "  \"web\": {\n    \"sweep\": [\n");
    for (size_t i = 0; i < web_runs.size(); ++i) {
      WriteWebRunJson(f, web_runs[i]);
      std::fprintf(f, i + 1 < web_runs.size() ? ",\n" : "\n");
    }
    std::fprintf(f,
                 "    ]\n  },\n  \"cpu_bound\": {\n    \"cpu_speed\": %.2f, "
                 "\"nic_bps\": %lld, \"knee_k1\": %d, \"knee_k2\": %d,\n"
                 "    \"sweep\": [\n",
                 kCpuBoundSpeed,
                 static_cast<long long>(CpuBoundNic().bandwidth_bps), knee_k1,
                 knee_k2);
    for (size_t i = 0; i < cpu_runs.size(); ++i) {
      WriteWebRunJson(f, cpu_runs[i]);
      std::fprintf(f, i + 1 < cpu_runs.size() ? ",\n" : "\n");
    }
    std::fprintf(f, "    ]\n  },\n  \"video\": {\n    \"sweep\": [\n");
    for (size_t i = 0; i < video_runs.size(); ++i) {
      WriteVideoRunJson(f, video_runs[i]);
      std::fprintf(f, i + 1 < video_runs.size() ? ",\n" : "\n");
    }
    std::fprintf(f, "    ]\n  }\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_fleet.json\n");
  }
  std::printf(
      "\nExpected shape: below the admission-predicted knee the ladder is\n"
      "inert and both rows match; beyond it, ladder-off p95 grows\n"
      "super-linearly with N while ladder-on sheds fidelity (evictions,\n"
      "decimation, level > 0) and keeps p95 growth sub-linear.\n");
  return 0;
}
