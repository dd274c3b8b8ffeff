// Figure 4: THINC average web page latency using the Table 2 remote sites.
// The paper measured these with a headless instrumented client (Section
// 8.1); here the same full client runs as on the LAN and decodes and draws
// every update, so every row uses one client model.
#include "bench/bench_common.h"

using namespace thinc;

int main() {
  const int32_t pages = bench::WebPageCount();
  bench::PrintHeader("Figure 4: Web Benchmark - THINC Page Latency, Remote Sites",
                     "site   rtt_ms   latency_ms   vs_LAN");
  WebRunResult lan = RunWebBenchmark(SystemKind::kThinc, LanDesktopConfig(), pages);
  std::printf("%-5s %7.1f %12.0f %8.2fx\n", "LAN", 0.2, lan.AvgLatencyMs(true), 1.0);
  for (const RemoteSite& site : RemoteSites()) {
    WebRunResult r =
        RunWebBenchmark(SystemKind::kThinc, RemoteSiteConfig(site), pages);
    std::printf("%-5s %7.1f %12.0f %8.2fx\n", site.name.c_str(),
                static_cast<double>(site.link.rtt) / kMillisecond,
                r.AvgLatencyMs(true), r.AvgLatencyMs(true) / lan.AvgLatencyMs(true));
    std::fflush(stdout);
  }
  std::printf(
      "\nPaper shape: sub-second everywhere except Korea; latency grows <2.5x to\n"
      "Finland while RTT grows >100x over the LAN.\n");
  return 0;
}
