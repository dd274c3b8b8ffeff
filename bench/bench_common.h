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
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_report.h"
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

// The value of environment variable `name` when it parses as an int > 0,
// else `fallback`. The env knobs select bench inputs only (EXPERIMENTS.md).
inline int EnvPositiveInt(const char* name, int fallback) {
  const char* env = std::getenv(name);
  const int v = env != nullptr ? std::atoi(env) : 0;
  return v > 0 ? v : fallback;
}

// `sizes` without the entries above the limit env variable `name` sets (all
// of them when it is unset), to trim a sweep's tail on small machines.
inline std::vector<int> TrimAbove(std::vector<int> sizes, const char* name) {
  const int max_n = EnvPositiveInt(name, 0);
  if (max_n > 0) {
    std::erase_if(sizes, [max_n](int n) { return n > max_n; });
  }
  return sizes;
}

inline int32_t WebPageCount() {
  return EnvPositiveInt("THINC_WEB_PAGES", 54);  // the full i-Bench-style suite
}

// The capacity knee: the largest `n` among `runs` matching `pred` whose
// pooled p95 latency is within `slo_ms`; 0 when none is.
template <typename Run, typename Pred>
int Knee(const std::vector<Run>& runs, double slo_ms, Pred pred) {
  int best = 0;
  for (const Run& r : runs) {
    if (pred(r) && r.pooled_p95_ms <= slo_ms) {
      best = std::max(best, r.n);
    }
  }
  return best;
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
// BufferStats counters (BufferStats::Get()) around a workload and report the
// deltas (the simulation is single-threaded, so a snapshot pair brackets
// exactly the bracketed work).

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

}  // namespace bench
}  // namespace thinc

#endif  // THINC_BENCH_BENCH_COMMON_H_
