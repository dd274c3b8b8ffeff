// Shared helpers for the figure/table reproduction binaries.
//
// Each bench prints the rows of one paper artifact (Figures 2-7, Table 2)
// in a fixed-width text table, using the same system sets per network
// configuration as Section 8.1:
//   * LAN/WAN Desktop: ICA, RDP, X, NX, Sun Ray, VNC, THINC (+ local PC
//     baseline); GoToMyPC only in WAN (it is an Internet-routed service).
//   * 802.11g PDA: only the systems that support a client geometry
//     different from the server's — ICA, RDP, GoToMyPC, VNC, THINC.
#ifndef THINC_BENCH_BENCH_COMMON_H_
#define THINC_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/measure/experiment.h"
#include "src/util/buffer.h"

namespace thinc {
namespace bench {

inline std::vector<SystemKind> DesktopSystems(bool include_gotomypc) {
  std::vector<SystemKind> systems = {
      SystemKind::kIca,  SystemKind::kRdp,    SystemKind::kX,
      SystemKind::kNx,   SystemKind::kSunRay, SystemKind::kVnc,
      SystemKind::kThinc};
  if (include_gotomypc) {
    systems.insert(systems.begin() + 2, SystemKind::kGotomypc);
  }
  systems.push_back(SystemKind::kLocalPc);
  return systems;
}

inline std::vector<SystemKind> PdaSystems() {
  return {SystemKind::kIca, SystemKind::kRdp, SystemKind::kGotomypc,
          SystemKind::kVnc, SystemKind::kThinc};
}

inline int32_t WebPageCount() {
  const char* env = std::getenv("THINC_WEB_PAGES");
  if (env != nullptr) {
    int n = std::atoi(env);
    if (n > 0) {
      return n;
    }
  }
  return 54;  // the full i-Bench-style suite
}

// Nearest-rank percentile over integer microseconds (deterministic; no FP
// accumulation order dependence). 0 for an empty sample.
inline int64_t PercentileUs(std::vector<int64_t> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t idx =
      static_cast<size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[idx];
}

inline void PrintHeader(const char* title, const char* columns) {
  std::printf("\n%s\n", title);
  for (size_t i = 0; i < std::string(title).size(); ++i) {
    std::putchar('=');
  }
  std::printf("\n%s\n", columns);
}

// --- Buffer-traffic instrumentation -----------------------------------------
//
// Benches that want to attribute cost to data movement snapshot the global
// BufferStats counters around a workload and report the deltas (the
// simulation is single-threaded, so a snapshot pair brackets exactly the
// bracketed work).

inline BufferStats SnapshotBufferStats() { return BufferStats::Get(); }

// Counter deltas of `end` relative to `start` (peak/live are taken from
// `end` as-is: they are levels, not counters).
inline BufferStats BufferStatsDelta(const BufferStats& start,
                                    const BufferStats& end) {
  BufferStats d = end;
  d.allocations -= start.allocations;
  d.allocated_bytes -= start.allocated_bytes;
  d.copies -= start.copies;
  d.copied_bytes -= start.copied_bytes;
  d.shares -= start.shares;
  d.cow_detaches -= start.cow_detaches;
  d.arena_reuses -= start.arena_reuses;
  d.raw_encodes -= start.raw_encodes;
  d.encode_charges -= start.encode_charges;
  d.payload_encode_hits -= start.payload_encode_hits;
  d.frame_cache_hits -= start.frame_cache_hits;
  return d;
}

inline void PrintBufferStats(const char* label, const BufferStats& s) {
  std::printf(
      "%-12s allocs=%-8lld alloc_MB=%-7.1f memcpys=%-8lld copied_MB=%-7.1f\n"
      "%-12s shares=%-8lld cow=%-5lld arena_reuse=%-5lld encodes=%-6lld "
      "enc_hits=%lld peak_MB=%.1f\n",
      label, static_cast<long long>(s.allocations),
      static_cast<double>(s.allocated_bytes) / (1024.0 * 1024.0),
      static_cast<long long>(s.copies),
      static_cast<double>(s.copied_bytes) / (1024.0 * 1024.0), "",
      static_cast<long long>(s.shares), static_cast<long long>(s.cow_detaches),
      static_cast<long long>(s.arena_reuses),
      static_cast<long long>(s.raw_encodes),
      static_cast<long long>(s.payload_encode_hits + s.frame_cache_hits),
      static_cast<double>(s.peak_payload_bytes) / (1024.0 * 1024.0));
}

// One `"name": {...}` JSON object for a stats delta (no trailing newline).
inline void WriteBufferStatsJson(std::FILE* f, const char* name,
                                 const BufferStats& s, double commands_per_sec) {
  std::fprintf(
      f,
      "  \"%s\": {\n"
      "    \"commands_per_sec\": %.0f,\n"
      "    \"allocations\": %lld,\n"
      "    \"allocated_bytes\": %lld,\n"
      "    \"memcpy_calls\": %lld,\n"
      "    \"memcpy_bytes\": %lld,\n"
      "    \"shares\": %lld,\n"
      "    \"cow_detaches\": %lld,\n"
      "    \"arena_reuses\": %lld,\n"
      "    \"raw_encodes\": %lld,\n"
      "    \"encode_cache_hits\": %lld,\n"
      "    \"peak_payload_bytes\": %lld\n"
      "  }",
      name, commands_per_sec, static_cast<long long>(s.allocations),
      static_cast<long long>(s.allocated_bytes),
      static_cast<long long>(s.copies), static_cast<long long>(s.copied_bytes),
      static_cast<long long>(s.shares), static_cast<long long>(s.cow_detaches),
      static_cast<long long>(s.arena_reuses),
      static_cast<long long>(s.raw_encodes),
      static_cast<long long>(s.payload_encode_hits + s.frame_cache_hits),
      static_cast<long long>(s.peak_payload_bytes));
}

}  // namespace bench
}  // namespace thinc

#endif  // THINC_BENCH_BENCH_COMMON_H_
