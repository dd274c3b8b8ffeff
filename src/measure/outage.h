// Robustness harness: drives a THINC session through a mid-run connection
// reset, keeps the application drawing while the client is gone, then
// reconnects and measures how the session recovers — recovery latency,
// resync bytes, per-phase delivery stats, and whether the client's
// framebuffer is pixel-identical to the server's virtual display afterwards.
//
// The scenario is fully deterministic: the fault is event-scheduled through
// the connection's FaultPlan, and every phase boundary is a fixed virtual
// time derived from the link parameters.
#ifndef THINC_SRC_MEASURE_OUTAGE_H_
#define THINC_SRC_MEASURE_OUTAGE_H_

#include <cstdint>
#include <string>

#include "src/measure/experiment.h"
#include "src/util/event_loop.h"

namespace thinc {

struct OutageScenarioResult {
  std::string config;

  // Per-phase delivery stats (server-to-client).
  // steady:  normal browsing, up to the doomed page's click.
  // outage:  from that click to the reconnect — only the partially
  //          delivered page; the reset freezes the counter.
  // resync:  everything the fresh connection carried.
  double steady_ms = 0;
  double outage_ms = 0;
  int64_t steady_bytes = 0;
  int64_t outage_bytes = 0;
  int64_t resync_bytes = 0;

  // Reconnect-to-resynchronized latency: network measure (last resync
  // delivery) and including client processing.
  double recovery_ms = 0;
  double recovery_with_client_ms = 0;

  // Graceful degradation during the outage.
  size_t peak_buffered_bytes = 0;  // max scheduler backlog observed
  size_t framebuffer_bytes = 0;    // the cap is 2x this
  int64_t overflow_coalesces = 0;
  int64_t reconnects = 0;

  // Post-resync fidelity: client framebuffer vs the server's virtual
  // display (vs its Fant-resampled reference when a viewport is active).
  int64_t mismatched_pixels = 0;
  bool resynced = false;
};

// Browses 3 pages, resets the connection mid-transfer on the 4th, renders
// 8 more pages while the client is gone, then reconnects.
OutageScenarioResult RunOutageScenario(const ExperimentConfig& config);

}  // namespace thinc

#endif  // THINC_SRC_MEASURE_OUTAGE_H_
