// Transport cost: co-located loopback vs the simulated TCP wire.
//
// The classic thin-client lab co-locates some clients with the server — a
// console session, a second head, a terminal on the same machine. For
// those there is no wire: LoopbackTransport hands encoded frames to the
// client as ref-counted buffers for a per-handoff CPU charge. This bench
// measures what that buys:
//
//   1. Co-located A/B — the paper's web benchmark through one ThincSystem
//      over the LAN wire vs the loopback (encryption off on both arms: RC4
//      forces a payload copy, and there is nothing to snoop on a same-host
//      handoff). Reports page latency, bytes, host CPU, and the zero-copy
//      evidence: memcpy'd payload bytes on the loopback must be ZERO while
//      the wire's SegmentQueue/socket path copies every frame at least
//      once into its send buffer.
//   2. Mixed fleet sweep — N sessions on one NIC-bound host, all-remote vs
//      half-local. Local sessions bypass the NIC entirely (their cost is
//      CPU handoffs), so converting half the population to local moves the
//      capacity knee out at equal N — the "terminal room next to the
//      server room" deployment shape.
//
// Emits BENCH_transport.json. `--smoke` runs the scripts/check.sh gate: a
// short co-located web run THINC_CHECKing that the loopback delivered
// frame payload by reference (payload bytes > 0, memcpy'd payload == 0).
#include "bench/bench_common.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "src/fleet/fleet.h"
#include "src/net/loopback.h"
#include "src/telemetry/telemetry.h"
#include "src/util/logging.h"
#include "src/workload/web.h"

using namespace thinc;

namespace {

int64_t LoopbackCounter(const char* name) {
  return MetricsRegistry::Get().GetCounter(name)->value();
}

// --- Co-located A/B ----------------------------------------------------------

struct ColocatedArm {
  WebRunResult web;
  SimTime server_cpu_busy = 0;
  // BufferStats delta across the run (includes workload/raster copies, the
  // same on both arms; the transport is the only thing that changes).
  int64_t copied_bytes = 0;
  // transport.loopback.* (zero on the wire arm).
  int64_t handoffs = 0;
  int64_t payload_bytes = 0;
  int64_t payload_copied_bytes = 0;
};

ColocatedArm RunColocatedArm(TransportKind kind, int pages) {
  MetricsRegistry::Get().ResetAll();
  ExperimentConfig config =
      kind == TransportKind::kWire ? LanDesktopConfig() : LocalLoopbackConfig();
  ThincServerOptions options;
  options.encrypt = false;
  ThincVariantExtras extras;
  const BufferStats before = BufferStats::Get();
  ColocatedArm arm;
  arm.web = RunThincWebVariant(config, options, pages, /*skip_viewport=*/false,
                               &extras);
  arm.copied_bytes = BufferStats::Get().copied_bytes - before.copied_bytes;
  arm.server_cpu_busy = extras.server_cpu_busy;
  arm.handoffs = LoopbackCounter("transport.loopback.handoffs");
  arm.payload_bytes = LoopbackCounter("transport.loopback.payload_bytes");
  arm.payload_copied_bytes =
      LoopbackCounter("transport.loopback.payload_copied_bytes");
  return arm;
}

// --- Mixed local/remote fleet sweep ------------------------------------------

// NIC-bound provisioning, as in bench_fleet_capacity's web sweep: the host
// CPU is fast and the shared downlink is the scarce resource — exactly the
// resource local sessions do not consume.
constexpr int32_t kScreenW = 512;
constexpr int32_t kScreenH = 384;
constexpr uint64_t kSeed = 11;
constexpr SimTime kThink = 1500 * kMillisecond;
constexpr double kCpuSpeed = 16.0;
constexpr double kKneeMs = 1000.0;

LinkParams FleetNic() {
  return LinkParams{1'000'000, 20 * kMillisecond, 256 << 10, "fleet-nic"};
}

struct FleetRun {
  int n = 0;
  int locals = 0;
  double pooled_p95_ms = 0;
  int64_t wire_bytes = 0;      // server->client over the shared NIC
  int64_t loopback_bytes = 0;  // server->client over in-host handoffs
  SimTime host_cpu_busy = 0;
  SimTime end_vtime = 0;
  int64_t spans_completed = 0;
};

// Open-loop web fleet with the first `locals` of `n` sessions co-located
// (interleaved across the click stagger so locality is not confounded with
// arrival phase).
FleetRun RunMixedFleet(int n, int locals, int pages_per_session) {
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
  fo.cpu_speed = kCpuSpeed;
  fo.send_buffer_bytes = 32 << 10;
  fo.seed = kSeed;
  // Raw capacity, not degraded capacity: the ladder would blur the knee.
  fo.degradation_enabled = false;
  FleetHost fleet(&loop, fo);
  std::vector<bool> is_local(static_cast<size_t>(n), false);
  for (int i = 0, placed = 0; i < n; ++i) {
    // Interleave: every other session is local until the quota is placed.
    const bool local = placed < locals && (i % 2 == 0 || n - i <= locals - placed);
    placed += local ? 1 : 0;
    is_local[static_cast<size_t>(i)] = local;
    THINC_CHECK(fleet.AddSession({}, /*weight=*/1, local) ==
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

  FleetRun r;
  r.n = n;
  r.locals = locals;
  r.end_vtime = loop.now();
  r.host_cpu_busy = fleet.host_cpu()->total_busy();
  std::map<int, size_t> pid_to_session;
  for (int i = 0; i < n; ++i) {
    const size_t id = static_cast<size_t>(i);
    const int64_t bytes =
        fleet.transport(id)->BytesDeliveredTo(Transport::kClient);
    (is_local[id] ? r.loopback_bytes : r.wire_bytes) += bytes;
    pid_to_session[fleet.server(id)->telemetry_pid()] = id;
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
  std::vector<int> sizes = {2, 4, 6, 8, 12, 16};
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
    if ((r.locals > 0) == mixed && r.pooled_p95_ms <= kKneeMs) {
      best = std::max(best, r.n);
    }
  }
  return best;
}

// --- Smoke gate (scripts/check.sh) -------------------------------------------

int RunSmoke() {
  bench::PrintHeader("Transport smoke: loopback zero-copy gate",
                     "(co-located web run; payload must move by reference)");
  ColocatedArm local = RunColocatedArm(TransportKind::kLoopback, /*pages=*/2);
  THINC_CHECK_MSG(local.payload_bytes > 0,
                  "loopback carried no frame payload — the gate is vacuous");
  THINC_CHECK_MSG(local.payload_copied_bytes == 0,
                  "loopback memcpy'd frame payload; the zero-copy handoff "
                  "path regressed");
  std::printf("co-located web: %lld payload bytes over %lld handoffs, "
              "0 memcpy'd — zero-copy holds\n",
              static_cast<long long>(local.payload_bytes),
              static_cast<long long>(local.handoffs));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    return RunSmoke();
  }

  bench::PrintHeader(
      "Transport cost: co-located loopback vs simulated TCP wire",
      "(web benchmark per arm; then a mixed local/remote fleet sweep)");

  // -- Co-located A/B --
  const int pages = bench::WebPageCount();
  ColocatedArm wire = RunColocatedArm(TransportKind::kWire, pages);
  ColocatedArm local = RunColocatedArm(TransportKind::kLoopback, pages);
  std::printf("\n-- Web, one session, encryption off (%d pages) --\n", pages);
  std::printf("%-10s %12s %12s %14s %16s %14s\n", "transport", "latency_ms",
              "page_KB", "srv_cpu_ms", "copied_bytes", "payload_copy");
  std::printf("%-10s %12.1f %12.1f %14.1f %16lld %14s\n", "wire",
              wire.web.AvgLatencyMs(false), wire.web.AvgPageKb(),
              static_cast<double>(wire.server_cpu_busy) / kMillisecond,
              static_cast<long long>(wire.copied_bytes), "n/a");
  std::printf("%-10s %12.1f %12.1f %14.1f %16lld %14lld\n", "loopback",
              local.web.AvgLatencyMs(false), local.web.AvgPageKb(),
              static_cast<double>(local.server_cpu_busy) / kMillisecond,
              static_cast<long long>(local.copied_bytes),
              static_cast<long long>(local.payload_copied_bytes));
  std::printf("loopback: %lld handoffs, %lld payload bytes by reference, "
              "%lld memcpy'd\n",
              static_cast<long long>(local.handoffs),
              static_cast<long long>(local.payload_bytes),
              static_cast<long long>(local.payload_copied_bytes));
  THINC_CHECK_MSG(local.payload_bytes > 0 && local.payload_copied_bytes == 0,
                  "loopback frame payload must move by reference");

  // -- Mixed fleet sweep --
  std::printf("\n-- Fleet on a %.0f Mbps NIC: all-remote vs half-local --\n",
              static_cast<double>(FleetNic().bandwidth_bps) / 1'000'000);
  std::printf("%4s %7s %14s %14s %16s %12s\n", "N", "locals", "pooled_p95_ms",
              "nic_bytes", "loopback_bytes", "host_cpu_ms");
  const int fleet_pages = 3;
  std::vector<FleetRun> runs;
  for (int n : SweepSizes()) {
    for (int locals : {0, n / 2}) {
      FleetRun r = RunMixedFleet(n, locals, fleet_pages);
      std::printf("%4d %7d %14.1f %14lld %16lld %12.1f\n", r.n, r.locals,
                  r.pooled_p95_ms, static_cast<long long>(r.wire_bytes),
                  static_cast<long long>(r.loopback_bytes),
                  static_cast<double>(r.host_cpu_busy) / kMillisecond);
      std::fflush(stdout);
      runs.push_back(std::move(r));
    }
  }
  const int knee_remote = Knee(runs, /*mixed=*/false);
  const int knee_mixed = Knee(runs, /*mixed=*/true);
  std::printf("capacity knee (largest N with pooled p95 <= %.0f ms): "
              "all-remote -> %d sessions, half-local -> %d sessions\n",
              kKneeMs, knee_remote, knee_mixed);
  THINC_CHECK_MSG(knee_mixed > knee_remote,
                  "half-local fleet must out-scale all-remote on a NIC-bound "
                  "host: local sessions are supposed to bypass the NIC");

  std::FILE* f = std::fopen("BENCH_transport.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"colocated_web\": {\n    \"pages\": %d,\n", pages);
    std::fprintf(f,
                 "    \"wire\": {\"latency_ms\": %.3f, \"page_kb\": %.3f, "
                 "\"server_cpu_us\": %lld, \"copied_bytes\": %lld},\n",
                 wire.web.AvgLatencyMs(false), wire.web.AvgPageKb(),
                 static_cast<long long>(wire.server_cpu_busy),
                 static_cast<long long>(wire.copied_bytes));
    std::fprintf(f,
                 "    \"loopback\": {\"latency_ms\": %.3f, \"page_kb\": %.3f, "
                 "\"server_cpu_us\": %lld, \"copied_bytes\": %lld, "
                 "\"handoffs\": %lld, \"payload_bytes\": %lld, "
                 "\"payload_copied_bytes\": %lld}\n  },\n",
                 local.web.AvgLatencyMs(false), local.web.AvgPageKb(),
                 static_cast<long long>(local.server_cpu_busy),
                 static_cast<long long>(local.copied_bytes),
                 static_cast<long long>(local.handoffs),
                 static_cast<long long>(local.payload_bytes),
                 static_cast<long long>(local.payload_copied_bytes));
    std::fprintf(f,
                 "  \"fleet\": {\n    \"nic_bps\": %lld, \"pages_per_session\": "
                 "%d, \"knee_all_remote\": %d, \"knee_half_local\": %d,\n"
                 "    \"sweep\": [\n",
                 static_cast<long long>(FleetNic().bandwidth_bps), fleet_pages,
                 knee_remote, knee_mixed);
    for (size_t i = 0; i < runs.size(); ++i) {
      const FleetRun& r = runs[i];
      std::fprintf(f,
                   "      {\"n\": %d, \"locals\": %d, \"p95_ms\": %.3f, "
                   "\"nic_bytes\": %lld, \"loopback_bytes\": %lld, "
                   "\"host_cpu_busy_us\": %lld, \"end_vtime_us\": %lld, "
                   "\"updates_completed\": %lld}%s\n",
                   r.n, r.locals, r.pooled_p95_ms,
                   static_cast<long long>(r.wire_bytes),
                   static_cast<long long>(r.loopback_bytes),
                   static_cast<long long>(r.host_cpu_busy),
                   static_cast<long long>(r.end_vtime),
                   static_cast<long long>(r.spans_completed),
                   i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  }\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_transport.json\n");
  }
  std::printf(
      "\nExpected shape: loopback pages arrive with zero payload memcpys and\n"
      "no wire serialization; in the fleet, half-local halves NIC load so the\n"
      "capacity knee sits beyond the all-remote knee at equal N.\n");
  return 0;
}
