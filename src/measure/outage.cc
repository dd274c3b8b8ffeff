#include "src/measure/outage.h"

#include <algorithm>

#include "src/baselines/thinc_system.h"
#include "src/raster/fant.h"
#include "src/telemetry/telemetry.h"
#include "src/util/logging.h"
#include "src/workload/web.h"

namespace thinc {
namespace {

// Web pages browsed normally before the fault.
constexpr int32_t kPagesBefore = 3;
// Pages the application keeps rendering while the client is disconnected
// (this is what grows — and caps — the server's update backlog).
constexpr int32_t kPagesDuring = 8;
// Idle gap between pages, matching the web benchmark cadence.
constexpr SimTime kPageGap = 300 * kMillisecond;

// Pixel-exact fidelity check; with an active viewport the client holds a
// Fant-resampled view, so the reference is resampled the same way the
// server's resize path does it.
int64_t CountMismatches(const Surface& client_fb, const Surface& screen) {
  const Surface* reference = &screen;
  Surface resampled;
  if (client_fb.width() != screen.width() || client_fb.height() != screen.height()) {
    resampled = FantResample(screen, client_fb.width(), client_fb.height());
    reference = &resampled;
  }
  THINC_CHECK(client_fb.width() == reference->width());
  THINC_CHECK(client_fb.height() == reference->height());
  int64_t mismatched = 0;
  for (int32_t y = 0; y < client_fb.height(); ++y) {
    for (int32_t x = 0; x < client_fb.width(); ++x) {
      if (client_fb.At(x, y) != reference->At(x, y)) {
        ++mismatched;
      }
    }
  }
  return mismatched;
}

}  // namespace

OutageScenarioResult RunOutageScenario(const ExperimentConfig& config) {
  // Robustness scenarios run with the flight recorder armed: the injected
  // reset auto-dumps the span timeline leading up to the fault (and a
  // THINC_CHECK failure anywhere in the scenario would dump it too).
  Telemetry& telemetry = Telemetry::Get();
  const TelemetryConfig previous = telemetry.config();
  TelemetryConfig tcfg = previous;
  tcfg.spans = true;
  tcfg.flight_recorder = true;
  telemetry.Configure(tcfg);
  telemetry.ResetRuntime();

  EventLoop loop;
  ThincSystem sys(&loop, config.link, config.screen_width, config.screen_height);
  if (config.viewport.has_value()) {
    sys.SetViewport(config.viewport->x, config.viewport->y);
    loop.Run();  // drain the initial refresh before measurement starts
  }

  WebWorkload workload(config.screen_width, config.screen_height);
  int32_t current_page = 0;
  sys.SetInputCallback([&sys, &workload, &current_page](Point) {
    sys.FetchContent(workload.page(current_page).content_bytes);
    workload.RenderPage(sys.api(), current_page, sys.app_cpu());
  });

  OutageScenarioResult result;
  result.config = config.name;
  result.framebuffer_bytes = static_cast<size_t>(config.screen_width) *
                             config.screen_height * sizeof(Pixel);

  Transport* conn = sys.connection();

  // --- Phase 1: steady browsing -------------------------------------------
  const int32_t pages_before =
      std::min<int32_t>(kPagesBefore, workload.page_count());
  for (int32_t i = 0; i < pages_before; ++i) {
    loop.RunUntil(loop.now() + kPageGap);
    current_page = i;
    sys.ClientClick(workload.LinkPosition(i));
    loop.Run();
  }

  // --- Phase 2: mid-frame reset + disconnected drawing ---------------------
  loop.RunUntil(loop.now() + kPageGap);
  const SimTime t_fault_click = loop.now();
  result.steady_ms = static_cast<double>(t_fault_click) / kMillisecond;
  result.steady_bytes = conn->BytesDeliveredTo(Transport::kClient);

  current_page = pages_before % workload.page_count();
  sys.ClientClick(workload.LinkPosition(current_page));
  // Mid-frame cut: advance virtual time until a few KB of the doomed page
  // have reached the client (bounded in case a page sends nothing), so the
  // reset always lands mid-transfer with the bulk of the page still in
  // flight, on every link.
  const SimTime probe_deadline = t_fault_click + 2 * kSecond;
  const int64_t partial_target = result.steady_bytes + (8 << 10);
  while (loop.now() < probe_deadline &&
         conn->BytesDeliveredTo(Transport::kClient) < partial_target) {
    loop.RunUntil(loop.now() + kMillisecond);
  }
  FaultPlan plan;
  plan.Reset(loop.now());
  conn->ScheduleFaults(plan);
  loop.Run();  // the page dies mid-transfer; server parks, client freezes
  THINC_CHECK(conn->closed());
  THINC_CHECK(!sys.server()->connected());

  // The application keeps working: render pages nobody is watching and
  // watch the update backlog stay capped by snapshot coalescing.
  for (int32_t i = 0; i < kPagesDuring; ++i) {
    const int32_t page = (pages_before + 1 + i) % workload.page_count();
    workload.RenderPage(sys.api(), page, sys.app_cpu());
    result.peak_buffered_bytes =
        std::max(result.peak_buffered_bytes, sys.server()->buffered_bytes());
    loop.RunUntil(loop.now() + kPageGap);
  }

  // --- Phase 3: reconnect + resync ------------------------------------------
  const SimTime t_reconnect = loop.now();
  result.outage_ms = static_cast<double>(t_reconnect - t_fault_click) / kMillisecond;
  result.outage_bytes =
      conn->BytesDeliveredTo(Transport::kClient) - result.steady_bytes;

  Transport* fresh = sys.Reconnect(config.link);
  loop.Run();  // hello -> full refresh -> applied at the client

  const SimTime net_done =
      std::max(t_reconnect, fresh->LastDeliveryTo(Transport::kClient));
  const SimTime all_done = std::max(net_done, sys.ClientLastProcessedAt());
  result.recovery_ms = static_cast<double>(net_done - t_reconnect) / kMillisecond;
  result.recovery_with_client_ms =
      static_cast<double>(all_done - t_reconnect) / kMillisecond;
  result.resync_bytes = fresh->BytesDeliveredTo(Transport::kClient);
  result.overflow_coalesces = sys.server()->overflow_coalesces();
  result.reconnects = sys.server()->reconnects();

  result.mismatched_pixels =
      CountMismatches(sys.client()->framebuffer(), sys.window_server()->screen());
  result.resynced = result.mismatched_pixels == 0;
  telemetry.Configure(previous);
  telemetry.ResetRuntime();
  return result;
}

}  // namespace thinc
