// Repo benchmark: runs one named workload against the simulator's
// public entry points and prints the end-to-end metrics (untraced run) or
// the per-layer metrics (traced run) as one JSON object on the last line.
//
//   thincbench --workload web_lan|av_lan|cluster_mixed --seed N
//              --seconds S --trace 0|1
//
// A run repeats one *episode* — a complete, freshly built simulation of the
// workload for that seed — until S seconds of host time have passed. Every
// episode of a run is the same simulation, so modeled results (virtual
// latency, bytes, frames, wire hash) must repeat exactly across episodes;
// host results (set-up time, ops per host second) are medians over
// episodes, read off the thread's CPU clock so that time the machine gives
// to other processes is not counted (the simulator is single-threaded and
// does no I/O, so on an idle core its CPU time is its wall time). The
// measured phase is timed in chunks of a fixed number of events, rescaled
// to a reference machine speed, and the median is taken per chunk. The
// first episode is untraced and is the reference: every later episode,
// traced or not, must reproduce its fingerprint, or the run is marked
// incorrect.
//
// The traced run drives the event loop one EventLoop::Step at a time and
// classifies each step by which CpuAccount's total_busy() it advanced:
// server/host CPUs -> "server", client CPUs -> "client", neither -> "net".
// Page-render callbacks are timed on their own ("render") and taken out of
// the step that ran them. All timing is done here, around calls into the
// simulator; the simulator itself is not instrumented.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/baselines/thinc_system.h"
#include "src/cluster/cluster.h"
#include "src/core/audio.h"
#include "src/device/device.h"
#include "src/display/window_server.h"
#include "src/measure/experiment.h"
#include "src/util/prng.h"
#include "src/workload/video.h"
#include "src/workload/web.h"

using namespace thinc;

namespace {

using Clock = std::chrono::steady_clock;

double NsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

double Ms(SimTime us) { return static_cast<double>(us) / kMillisecond; }

// FNV-1a over 64-bit words: the episode's determinism fingerprint.
class Fingerprint {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

uint64_t HashPixels(const Surface& s) {
  Fingerprint f;
  for (Pixel p : s.pixels()) {
    f.Add(p);
  }
  return f.value();
}

// --- Traced-run host-time probe ------------------------------------------------

struct HostClass {
  double ns = 0;
  int64_t events = 0;
};

class StepProbe {
 public:
  void AddServerCpu(const CpuAccount* cpu) { server_cpus_.push_back(cpu); }
  void AddClientCpu(const CpuAccount* cpu) { client_cpus_.push_back(cpu); }

  // Fires one event and books its host time to the class whose CPU it
  // charged (server wins when both advanced). False when the loop is empty.
  bool Step(EventLoop* loop) {
    const SimTime server0 = Busy(server_cpus_);
    const SimTime client0 = Busy(client_cpus_);
    render_in_step_ns_ = 0;
    const Clock::time_point t0 = Clock::now();
    if (!loop->Step()) {
      return false;
    }
    const double ns = NsSince(t0) - render_in_step_ns_;
    HostClass& c = Busy(server_cpus_) != server0   ? server
                   : Busy(client_cpus_) != client0 ? client
                                                   : net;
    c.ns += ns;
    ++c.events;
    return true;
  }

  // Times one page-render callback (workload -> display -> core -> codec).
  void TimeRender(const std::function<void()>& render_fn) {
    const Clock::time_point t0 = Clock::now();
    render_fn();
    const double ns = NsSince(t0);
    render.ns += ns;
    ++render.events;
    render_in_step_ns_ += ns;
  }

  HostClass render, server, client, net;

 private:
  static SimTime Busy(const std::vector<const CpuAccount*>& cpus) {
    SimTime total = 0;
    for (const CpuAccount* c : cpus) {
      total += c->total_busy();
    }
    return total;
  }

  std::vector<const CpuAccount*> server_cpus_;
  std::vector<const CpuAccount*> client_cpus_;
  double render_in_step_ns_ = 0;
};

void Render(StepProbe* probe, const std::function<void()>& render_fn) {
  if (probe == nullptr) {
    render_fn();
  } else {
    probe->TimeRender(render_fn);
  }
}

// Accepts every hook and does nothing: replaying the renders into a
// WindowServer driven by it isolates software rasterization.
class NoopDriver : public DisplayDriver {};

// --- One episode -------------------------------------------------------------

enum class Mode { kSetupOnly, kUntraced, kTraced };

struct Episode {
  // Host.
  double setup_s = 0;
  double measured_ns = 0;            // wall time of the measured phase
  std::vector<double> chunk_cpu_ns;  // its thread CPU time, chunk by chunk
  std::vector<double> speed_ns;      // SpeedProbe times, one after each chunk
  double raster_ns = 0;              // traced only: no-op-driver replay of the renders
  StepProbe probe;                   // traced only
  // Modeled (deterministic for a seed).
  int64_t ops = 0;
  int64_t failed = 0;
  std::vector<double> latency_ms;  // one per successful op
  int64_t bytes_to_client = 0;
  double quality = 0;
  uint64_t events = 0;
  uint64_t wire_hash = 0;
  uint64_t content_hash = 0;
  uint64_t fingerprint = 0;
  std::vector<std::string> check_failures;
  // Modeled per-layer.
  double server_busy_ms = 0;
  double client_busy_ms = 0;
  double net_kb = 0;
  int64_t net_segments = 0;
  int64_t frames_displayed = 0;
  double audio_fraction = 0;
  int64_t max_degrade_level = 0;
  int64_t parked = 0;
  int64_t migrations = 0;
  double blackout_ms_p95 = 0;
  int64_t mismatched_px = 0;
};

// Events per timed chunk of the measured phase. Every episode of a seed
// fires the same events in the same order, so chunk i of one episode is the
// same work as chunk i of any other, and a run can take a median per chunk.
constexpr int kChunkEvents = 256;

double ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

// --- Machine speed ------------------------------------------------------------
//
// The benchmark's core shares the host with other work, and the thread's
// speed drifts with it by up to ±20% over tens of seconds, even on the CPU
// clock, which already leaves out preemption. The probe is a fixed loop of
// streaming reads over a buffer held in the core's private L2: it measures
// how fast this core runs memory-heavy code at the moment, and since it
// warms its own buffer before timing, nothing the simulator did before it
// moves it. It lives here, not in the simulator, so no change to the
// simulator changes it either. Run between chunks of the measured phase,
// it tracked run-to-run drift on a 4-vCPU Xeon VM: over runs of seeds 1-8,
// the spread of web_lan's ops_per_s fell from 0.175 to 0.067 (an ALU-only
// loop barely moved; probes that read from the last-level cache or DRAM
// helped less). Measured-phase host times are reported at the probe's
// reference speed: see RescaledChunkNs() and Slowdown().

// About the probe's time on that VM when the host was quiet.
constexpr double kReferenceProbeNs = 16e3;

class SpeedProbe {
 public:
  SpeedProbe() : words_(kBufferBytes / sizeof(uint64_t)) {
    Prng prng(1);
    for (uint64_t& w : words_) {
      w = prng.Next();
    }
  }

  // Reads one word per cache line of the buffer once untimed, to bring it
  // into L2, then kPasses times timed; returns the thread CPU ns of those.
  double Run() {
    uint64_t sum = Pass();
    const double t0 = ThreadCpuNs();
    for (int i = 0; i < kPasses; ++i) {
      sum += Pass();
    }
    const double ns = ThreadCpuNs() - t0;
    sink_ += sum;
    return ns;
  }

 private:
  static constexpr size_t kBufferBytes = 512u << 10;  // a quarter of the L2
  static constexpr int kPasses = 4;

  uint64_t Pass() const {
    constexpr size_t kWordsPerLine = 64 / sizeof(uint64_t);
    uint64_t sum = 0;
    for (size_t i = 0; i < words_.size(); i += kWordsPerLine) {
      sum += words_[i];
    }
    return sum;
  }

  std::vector<uint64_t> words_;
  uint64_t sink_ = 0;  // keeps the loads from being optimized away
};

SpeedProbe& Speed() {
  static SpeedProbe probe;
  return probe;
}

// Runs `start` and then the loop until it is empty, timing the work in
// chunks of kChunkEvents events and probing machine speed after each.
// Untraced and traced runs fire the same events in the same order; only
// the per-step timing differs.
void Drain(EventLoop* loop, StepProbe* probe, Episode* ep,
           const std::function<void()>& start = nullptr) {
  for (bool first = true;; first = false) {
    const double cpu0 = ThreadCpuNs();
    const Clock::time_point t0 = Clock::now();
    if (first && start) {
      start();
    }
    int fired = 0;
    while (fired < kChunkEvents && (probe != nullptr ? probe->Step(loop) : loop->Step())) {
      ++fired;
    }
    if (fired == 0 && !first) {
      return;
    }
    ep->measured_ns += NsSince(t0);
    ep->chunk_cpu_ns.push_back(ThreadCpuNs() - cpu0);
    ep->speed_ns.push_back(Speed().Run());
    if (fired < kChunkEvents) {
      return;
    }
  }
}

void AddTransport(const Transport* t, Episode* ep, Fingerprint* fp) {
  for (const TraceRecord& r : t->TraceTo(Transport::kClient)) {
    ep->net_kb += static_cast<double>(r.bytes) / 1024.0;
    ++ep->net_segments;
  }
  const uint64_t h = t->DeliveredHashTo(Transport::kClient);
  ep->wire_hash = ep->wire_hash * 1099511628211ULL ^ h;
  fp->Add(h);
  fp->Add(t->DeliveredHashTo(Transport::kServer));
}

int64_t CountMismatched(const Surface& a, const Surface& b) {
  const std::span<const Pixel> pa = a.pixels();
  const std::span<const Pixel> pb = b.pixels();
  if (pa.size() != pb.size()) {
    return static_cast<int64_t>(std::max(pa.size(), pb.size()));
  }
  if (std::memcmp(pa.data(), pb.data(), pa.size_bytes()) == 0) {
    return 0;
  }
  int64_t bad = 0;
  for (size_t i = 0; i < pa.size(); ++i) {
    bad += pa[i] != pb[i] ? 1 : 0;
  }
  return bad;
}

// Percentile of an unsorted sample by rounded rank (p in [0, 1]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

// web_lan: one LAN desktop session at 1024x768; the 54 pages of a seeded
// WebWorkload as a closed loop (click, run until the page quiesces, idle
// 300 ms) — RunWebBenchmark's cycle, so seed 1 reproduces its THINC pages.
void RunWebLan(uint64_t seed, Mode mode, Episode* ep) {
  StepProbe* probe = mode == Mode::kTraced ? &ep->probe : nullptr;
  const double cpu_setup = ThreadCpuNs();
  const ExperimentConfig config = LanDesktopConfig();
  EventLoop loop;
  ThincSystem sys(&loop, config.link, config.screen_width, config.screen_height);
  const WebWorkload workload(config.screen_width, config.screen_height, seed);
  int32_t current_page = 0;
  std::vector<int32_t> rendered;
  sys.SetInputCallback([&](Point) {
    Render(probe, [&] {
      sys.FetchContent(workload.page(current_page).content_bytes);
      workload.RenderPage(sys.api(), current_page, sys.app_cpu());
    });
    rendered.push_back(current_page);
  });
  loop.RunUntil(loop.now() + 300 * kMillisecond);  // initial refresh + idle
  ep->setup_s = (ThreadCpuNs() - cpu_setup) * 1e-9;
  if (mode == Mode::kSetupOnly) {
    return;
  }
  if (probe != nullptr) {
    probe->AddServerCpu(sys.app_cpu());
    probe->AddClientCpu(sys.client_cpu());
  }

  const uint64_t events0 = loop.fired_count();
  Fingerprint fp;
  for (int32_t i = 0; i < workload.page_count(); ++i) {
    current_page = i;
    const int64_t b0 = sys.BytesToClient();
    if (i > 0) {
      // The loop is empty after a quiesced page, so the idle fires nothing
      // and is not timed.
      loop.RunUntil(loop.now() + 300 * kMillisecond);
    }
    const SimTime click = loop.now();
    Drain(&loop, probe, ep, [&] { sys.ClientClick(workload.LinkPosition(i)); });
    const SimTime net_done = std::max(click, sys.LastDeliveryToClient());
    const SimTime done = std::max(net_done, sys.ClientLastProcessedAt());
    const int64_t bytes = sys.BytesToClient() - b0;
    const int64_t bad = CountMismatched(sys.client()->framebuffer(),
                                        sys.window_server()->screen());
    ++ep->ops;
    ep->mismatched_px += bad;
    if (bad > 0) {
      ++ep->failed;
    } else {
      ep->latency_ms.push_back(Ms(done - click));
    }
    ep->bytes_to_client += bytes;
    fp.Add(static_cast<uint64_t>(done - click));
    fp.Add(static_cast<uint64_t>(bytes));
  }
  if (ep->failed > 0) {
    ep->check_failures.push_back("client framebuffer != screen on " +
                                 std::to_string(ep->failed) + " of " +
                                 std::to_string(ep->ops) + " pages");
  }
  ep->events = loop.fired_count() - events0;
  ep->quality = static_cast<double>(ep->ops - ep->failed) / static_cast<double>(ep->ops);
  AddTransport(sys.connection(), ep, &fp);
  ep->content_hash = HashPixels(sys.client()->framebuffer());
  ep->server_busy_ms = Ms(sys.app_cpu()->total_busy());
  ep->client_busy_ms = Ms(sys.client_cpu()->total_busy());
  fp.Add(ep->events);
  fp.Add(static_cast<uint64_t>(sys.app_cpu()->total_busy()));
  fp.Add(static_cast<uint64_t>(sys.client_cpu()->total_busy()));
  ep->fingerprint = fp.value();

  if (probe != nullptr) {
    NoopDriver noop;
    WindowServer ws(config.screen_width, config.screen_height, &noop, nullptr);
    const Clock::time_point t0 = Clock::now();
    for (int32_t page : rendered) {
      workload.RenderPage(&ws, page, nullptr);
    }
    ep->raster_ns = NsSince(t0);
  }
}

// av_lan: one LAN session at 1024x768 playing the 352x240 24 fps YV12 clip
// full screen with PCM audio, open loop on the frame schedule. Frame content
// is a function of the frame index only (VideoSource::FrameContent) and the
// PCM generator has a fixed seed, so the seed picks the one free input: the
// audio stream's start offset against the video frame clock (0..45 ms).
void RunAvLan(uint64_t seed, Mode mode, Episode* ep) {
  StepProbe* probe = mode == Mode::kTraced ? &ep->probe : nullptr;
  const double cpu_setup = ThreadCpuNs();
  const ExperimentConfig config = LanDesktopConfig();
  constexpr SimTime kAudioPeriod = 46 * kMillisecond;
  const SimTime duration = static_cast<SimTime>(8.6875 * kSecond);
  EventLoop loop;
  ThincSystem sys(&loop, config.link, config.screen_width, config.screen_height);
  const Rect screen{0, 0, config.screen_width, config.screen_height};
  sys.SetVideoProbeRect(screen);
  VideoSourceOptions vo;
  vo.dst = screen;
  vo.duration = duration;
  VideoSource video(&loop, sys.api(), sys.app_cpu(), vo);
  const PcmFormat pcm;
  VirtualAudioDriver audio(&loop, pcm, kAudioPeriod,
                           [&sys](std::span<const uint8_t> data, SimTime ts) {
                             sys.SubmitAudio(data, ts);
                           });
  const SimTime audio_offset =
      static_cast<SimTime>(Prng(seed).NextBelow(static_cast<uint64_t>(kAudioPeriod)));
  loop.Run();  // the session's initial refresh
  ep->setup_s = (ThreadCpuNs() - cpu_setup) * 1e-9;
  if (mode == Mode::kSetupOnly) {
    return;
  }
  if (probe != nullptr) {
    probe->AddServerCpu(sys.app_cpu());
    probe->AddClientCpu(sys.client_cpu());
  }

  const uint64_t events0 = loop.fired_count();
  const SimTime t0 = loop.now();
  const int64_t b0 = sys.BytesToClient();
  Drain(&loop, probe, ep, [&] {
    video.Start();
    loop.Schedule(audio_offset, [&audio, duration] { audio.StartStream(duration); });
  });
  ep->events = loop.fired_count() - events0;

  Fingerprint fp;
  const std::vector<VideoFrameArrival>& frames = sys.client()->video_frames();
  ep->ops = video.total_frames();
  ep->frames_displayed = std::min<int64_t>(static_cast<int64_t>(frames.size()), ep->ops);
  ep->failed = ep->ops - ep->frames_displayed;
  for (const VideoFrameArrival& f : frames) {
    ep->latency_ms.push_back(Ms(f.time - f.server_timestamp));
    fp.Add(static_cast<uint64_t>(f.time));
    fp.Add(static_cast<uint64_t>(f.server_timestamp));
  }
  // Slow-motion A/V quality, as RunAvBenchmark computes it.
  const double ideal_s = static_cast<double>(duration) / kSecond;
  const double played_s =
      frames.empty() ? ideal_s : static_cast<double>(frames.back().time - t0) / kSecond;
  const double completeness =
      static_cast<double>(ep->frames_displayed) / static_cast<double>(ep->ops);
  ep->quality = completeness * (played_s > ideal_s ? ideal_s / played_s : 1.0);
  const int64_t expected_audio = pcm.BytesPerSecond() * duration / kSecond;
  const int64_t audio_delivered = sys.AudioBytesDelivered();
  ep->audio_fraction =
      std::min(1.0, static_cast<double>(audio_delivered) / static_cast<double>(expected_audio));
  if (ep->failed > 0) {
    ep->check_failures.push_back(std::to_string(ep->failed) +
                                 " source frames never displayed");
  }
  if (audio_delivered != audio.bytes_emitted() || audio_delivered == 0) {
    ep->check_failures.push_back("audio delivered " + std::to_string(audio_delivered) +
                                 " of " + std::to_string(audio.bytes_emitted()) + " bytes");
  }
  ep->bytes_to_client = sys.BytesToClient() - b0;
  ep->mismatched_px =
      CountMismatched(sys.client()->framebuffer(), sys.window_server()->screen());
  if (ep->mismatched_px > 0) {
    ep->check_failures.push_back("client framebuffer != screen after playback");
  }
  AddTransport(sys.connection(), ep, &fp);
  ep->content_hash = HashPixels(sys.client()->framebuffer());
  ep->server_busy_ms = Ms(sys.app_cpu()->total_busy());
  ep->client_busy_ms = Ms(sys.client_cpu()->total_busy());
  fp.Add(static_cast<uint64_t>(ep->bytes_to_client));
  fp.Add(static_cast<uint64_t>(audio_delivered));
  fp.Add(ep->events);
  fp.Add(static_cast<uint64_t>(sys.app_cpu()->total_busy()));
  fp.Add(static_cast<uint64_t>(sys.client_cpu()->total_busy()));
  ep->fingerprint = fp.value();
}

// The FleetSession a cluster-wide id currently lives in (its client CPU and
// retired transports are reachable only through the host).
FleetSession* FindSession(ClusterController* cluster, int64_t gid) {
  FleetHost* host = cluster->host(cluster->host_of(gid));
  for (size_t slot = 0; slot < host->session_count(); ++slot) {
    if (host->has_session(slot) && host->server(slot) == cluster->server(gid)) {
      return host->session(slot);
    }
  }
  return nullptr;
}

// cluster_mixed: 2 hosts x (1 Mbit/s, 20 ms NIC), 512x384 screens, adaptive
// codecs on, ladder and migration on; 16 sessions pinned 12 on host 0 and 4
// on host 1, every fourth one a smartphone on its lossy path; 10 pages per
// session as an open loop at a 1.5 s think time, staggered across sessions.
void RunClusterMixed(uint64_t seed, Mode mode, Episode* ep) {
  constexpr int kSessions = 16;
  constexpr int kPages = 10;
  StepProbe* probe = mode == Mode::kTraced ? &ep->probe : nullptr;
  const double cpu_setup = ThreadCpuNs();
  ClusterExperimentConfig c = WebClusterConfig(2);
  c.seed = seed;
  ClusterOptions co;
  co.hosts = c.hosts;
  co.host.screen_width = c.screen_width;
  co.host.screen_height = c.screen_height;
  co.host.link = c.link;
  co.host.cpu_speed = c.host_cpu_speed;
  co.host.cpu_cores = c.host_cpu_cores;
  co.host.seed = c.seed;
  co.host.send_buffer_bytes = 32 << 10;
  co.host.control_interval = 50 * kMillisecond;
  co.host.overload_lag = 1 * kSecond;
  co.host.server_options.adapt.enabled = true;
  co.interconnect_bps = c.interconnect_bps;
  co.interconnect_rtt = c.interconnect_rtt;
  co.control_interval = 100 * kMillisecond;
  co.ticks_to_migrate = 3;
  co.session_cooldown = c.think_time;
  EventLoop loop;
  ClusterController cluster(&loop, co);
  const WebWorkload web(c.screen_width, c.screen_height, seed);

  std::vector<int64_t> gids;
  std::vector<bool> phone;
  for (int i = 0; i < kSessions; ++i) {
    const bool is_phone = i % 4 == 3;
    const int64_t gid = cluster.AdmitOnHost(i < 12 ? 0 : 1, FleetSessionDemand{}, 1,
                                            is_phone ? SmartphoneProfile() : DesktopProfile());
    if (gid < 0) {
      ++ep->parked;
      continue;
    }
    gids.push_back(gid);
    phone.push_back(is_phone);
  }
  loop.Run();  // the sessions' initial refreshes
  std::vector<int32_t> page_of(static_cast<size_t>(kSessions), 0);
  std::vector<std::pair<int64_t, int32_t>> rendered;
  for (int64_t gid : gids) {
    cluster.SetInputCallback(gid, [&, gid](Point) {
      const int32_t page = page_of[static_cast<size_t>(gid)];
      Render(probe, [&] {
        web.RenderPage(cluster.window_server(gid), page,
                       cluster.host(cluster.host_of(gid))->host_cpu());
      });
      rendered.emplace_back(gid, page);
    });
  }

  // Open loop: session i clicks page p at i*stagger + p*think, whatever the
  // state of its earlier pages. A page ends at the client's last processed
  // update, read just before the session's next click (or at run end); a
  // page with nothing processed yet at that read stays open for the next
  // one, so a late answer counts as a slow page. A click still open at run
  // end got no answer at all and is a failed op.
  const SimTime think = c.think_time;
  const SimTime stagger = think / kSessions;
  std::vector<std::vector<SimTime>> open_clicks(static_cast<size_t>(kSessions));
  Fingerprint fp;
  auto close_pages = [&](int64_t gid) {
    std::vector<SimTime>& open = open_clicks[static_cast<size_t>(gid)];
    const SimTime done = cluster.client(gid)->last_processed_at();
    std::erase_if(open, [&](SimTime click) {
      if (done <= click) {
        return false;
      }
      ep->latency_ms.push_back(Ms(done - click));
      return true;
    });
    fp.Add(static_cast<uint64_t>(done));
  };
  const SimTime base = loop.now();
  SimTime last_start = base;
  for (int64_t gid : gids) {
    for (int p = 0; p < kPages; ++p) {
      const SimTime t = base + gid * stagger + p * think;
      last_start = std::max(last_start, t);
      loop.ScheduleAt(t, [&, gid, p] {
        close_pages(gid);
        page_of[static_cast<size_t>(gid)] =
            static_cast<int32_t>((gid * 7 + p) % web.page_count());
        open_clicks[static_cast<size_t>(gid)].push_back(loop.now());
        ep->max_degrade_level =
            std::max<int64_t>(ep->max_degrade_level, cluster.server(gid)->degradation_level());
        cluster.ClientClick(gid, web.LinkPosition(p % web.page_count()));
      });
    }
  }
  cluster.StartController(last_start + 5 * kSecond);
  ep->setup_s = (ThreadCpuNs() - cpu_setup) * 1e-9;
  if (mode == Mode::kSetupOnly) {
    return;
  }

  if (probe != nullptr) {
    for (size_t h = 0; h < cluster.host_count(); ++h) {
      probe->AddServerCpu(cluster.host(h)->host_cpu());
    }
    for (int64_t gid : gids) {
      probe->AddClientCpu(FindSession(&cluster, gid)->client_cpu.get());
    }
  }
  const uint64_t events0 = loop.fired_count();
  Drain(&loop, probe, ep);
  ep->events = loop.fired_count() - events0;
  for (int64_t gid : gids) {
    close_pages(gid);
    ep->failed += static_cast<int64_t>(open_clicks[static_cast<size_t>(gid)].size());
  }
  cluster.FinalizeBlackouts();

  ep->ops = static_cast<int64_t>(kSessions) * kPages;
  ep->failed += ep->parked * kPages;
  if (ep->parked > 0) {
    ep->check_failures.push_back(std::to_string(ep->parked) + " sessions parked");
  }
  ep->quality = static_cast<double>(ep->ops - ep->failed) / static_cast<double>(ep->ops);
  for (size_t i = 0; i < gids.size(); ++i) {
    const int64_t gid = gids[i];
    ep->max_degrade_level =
        std::max<int64_t>(ep->max_degrade_level, cluster.server(gid)->degradation_level());
    ep->bytes_to_client += cluster.BytesDeliveredToClient(gid);
    FleetSession* s = FindSession(&cluster, gid);
    AddTransport(s->transport.get(), ep, &fp);
    for (const std::unique_ptr<Transport>& t : s->retired) {
      AddTransport(t.get(), ep, &fp);
    }
    ep->client_busy_ms += Ms(s->client_cpu->total_busy());
    fp.Add(cluster.ClientFramebufferHash(gid));
    ep->content_hash = ep->content_hash * 31 + cluster.ClientFramebufferHash(gid);
    // ClusterController::MismatchedPixels walks the server screen over the
    // client framebuffer unchecked, which reads out of bounds on a
    // viewport-scaled (phone) session; compare desktops only.
    if (!phone[i]) {
      ep->mismatched_px += static_cast<int64_t>(cluster.MismatchedPixels(gid));
    }
  }
  for (size_t h = 0; h < cluster.host_count(); ++h) {
    ep->server_busy_ms += Ms(cluster.host(h)->host_cpu()->total_busy());
  }
  std::vector<double> blackouts;
  for (const MigrationRecord& rec : cluster.migrations()) {
    if (rec.resume == 0) {
      continue;
    }
    ++ep->migrations;
    blackouts.push_back(Ms(rec.blackout_end - rec.start));
    fp.Add(static_cast<uint64_t>(rec.gid));
    fp.Add(static_cast<uint64_t>(rec.start));
    fp.Add(static_cast<uint64_t>(rec.blackout_end));
  }
  ep->blackout_ms_p95 = Percentile(blackouts, 0.95);
  fp.Add(static_cast<uint64_t>(ep->bytes_to_client));
  fp.Add(ep->events);
  fp.Add(static_cast<uint64_t>(ep->max_degrade_level));
  fp.Add(static_cast<uint64_t>(ep->mismatched_px));
  ep->fingerprint = fp.value();

  if (probe != nullptr) {
    NoopDriver noop;
    std::vector<std::unique_ptr<WindowServer>> replay;
    for (size_t i = 0; i < static_cast<size_t>(kSessions); ++i) {
      replay.push_back(
          std::make_unique<WindowServer>(c.screen_width, c.screen_height, &noop, nullptr));
    }
    const Clock::time_point t0 = Clock::now();
    for (const auto& [gid, page] : rendered) {
      web.RenderPage(replay[static_cast<size_t>(gid)].get(), page, nullptr);
    }
    ep->raster_ns = NsSince(t0);
  }
}

// --- One run -----------------------------------------------------------------

struct Workload {
  const char* name;
  void (*run)(uint64_t seed, Mode mode, Episode* ep);
  // Inputs pooled per run: episodes cycle over this many sub-seeds of the
  // run seed, so a run's figures depend less on which seed it was given.
  // av_lan's inputs do not depend on the seed's content, so one suffices.
  int sub_seeds;
};

constexpr Workload kWorkloads[] = {
    {"web_lan", RunWebLan, 4},
    {"av_lan", RunAvLan, 1},
    {"cluster_mixed", RunClusterMixed, 4},
};

// Sub-seed j of a run: the run seed itself for j = 0 (so with seed 1 the
// first web_lan episode clicks RunWebBenchmark's page set), else the j-th
// splitmix64 draw seeded with it, so runs with nearby seeds share no inputs.
uint64_t SubSeed(uint64_t seed, int j) {
  Prng prng(seed);
  uint64_t s = seed;
  for (int i = 0; i < j; ++i) {
    s = prng.Next();
  }
  return s;
}

// Set-up-only builds per untraced run, so setup_s is a median of many: at
// least kMinSetupReps and a second's worth, at most kMaxSetupReps.
constexpr int kMinSetupReps = 15;
constexpr int kMaxSetupReps = 200;
constexpr double kSetupRepSeconds = 1.0;

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// How much slower than the reference the machine ran during an episode.
double Slowdown(const Episode& ep) { return Median(ep.speed_ns) / kReferenceProbeNs; }

// Chunk c's CPU ns at the reference machine speed: divided by the mean of
// the probes run just before and just after it, over the reference. The
// machine's speed changes within an episode too, and pairing each chunk
// with its own probes tracked that better than the episode's median probe.
double RescaledChunkNs(const Episode& ep, size_t c) {
  const double probe_ns = c == 0 ? ep.speed_ns[0] : 0.5 * (ep.speed_ns[c - 1] + ep.speed_ns[c]);
  return ep.chunk_cpu_ns[c] * kReferenceProbeNs / probe_ns;
}

// The highest sample with at least ten samples beyond it (the largest when
// there are fewer than eleven).
double TailOf(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  return v.size() > 10 ? v[v.size() - 11] : v.back();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintJson(bool correct, int64_t attempted, int64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Stage split of the fig-2 web run (RunThincWebBreakdown: LAN desktop,
// default options, its own seed-1 page set), update-weighted over pages.
std::vector<Metric> StageMetrics(bool run) {
  double q = 0, e = 0, s = 0, n = 0, d = 0;
  int64_t updates = 0;
  if (run) {
    const WebBreakdownResult r = RunThincWebBreakdown(LanDesktopConfig(), ThincServerOptions{},
                                                      WebWorkload::kPageCount);
    for (const StageBreakdown& sb : r.pages) {
      const double w = static_cast<double>(sb.updates);
      q += sb.queue_ms * w;
      e += sb.encode_ms * w;
      s += sb.send_ms * w;
      n += sb.network_ms * w;
      d += sb.decode_ms * w;
      updates += sb.updates;
    }
  }
  const double u = updates > 0 ? static_cast<double>(updates) : 1.0;
  return {{"stage.queue_ms", q / u, "sim_ms"},
          {"stage.encode_ms", e / u, "sim_ms"},
          {"stage.send_ms", s / u, "sim_ms"},
          {"stage.net_ms", n / u, "sim_ms"},
          {"stage.decode_ms", d / u, "sim_ms"}};
}

// The episodes of one run, each tagged with its sub-seed index.
struct EpisodeSet {
  std::vector<const Episode*> eps;
  std::vector<int> sub;
  int sub_seeds = 1;

  // Per-episode figure: the median over each sub-seed's episodes, averaged
  // over sub-seeds (sub-seeds differ in content, repeats only in noise).
  double PerEpisode(const std::function<double(const Episode&)>& value) const {
    double sum = 0;
    for (int j = 0; j < sub_seeds; ++j) {
      std::vector<double> v;
      for (size_t i = 0; i < eps.size(); ++i) {
        if (sub[i] == j) {
          v.push_back(value(*eps[i]));
        }
      }
      sum += Median(v);
    }
    return sum / sub_seeds;
  }

  // CPU ns of the measured phase at the reference machine speed: for each
  // sub-seed, the sum over chunks of the chunk's median over that
  // sub-seed's episodes, averaged over sub-seeds. A burst of machine noise
  // slows the chunks it hits in one episode, and the per-chunk median
  // leaves it out.
  double MeasuredCpuNs() const {
    double sum = 0;
    for (int j = 0; j < sub_seeds; ++j) {
      std::vector<const Episode*> of_j;
      size_t n = SIZE_MAX;
      for (size_t i = 0; i < eps.size(); ++i) {
        if (sub[i] == j) {
          of_j.push_back(eps[i]);
          n = std::min(n, eps[i]->chunk_cpu_ns.size());
        }
      }
      for (size_t c = 0; c < n; ++c) {
        std::vector<double> v;
        for (const Episode* ep : of_j) {
          v.push_back(RescaledChunkNs(*ep, c));
        }
        sum += Median(std::move(v));
      }
    }
    return sum / sub_seeds;
  }

  // Ops per CPU second at the reference machine speed.
  double OpsPerSecond() const {
    const double ops = PerEpisode([](const Episode& ep) { return static_cast<double>(ep.ops); });
    return ops / (MeasuredCpuNs() * 1e-9);
  }
};

double MeanOf(const std::vector<std::unique_ptr<Episode>>& refs,
              const std::function<double(const Episode&)>& value) {
  double sum = 0;
  for (const auto& ep : refs) {
    sum += value(*ep);
  }
  return sum / static_cast<double>(refs.size());
}

int Usage() {
  std::fprintf(stderr,
               "usage: thincbench --workload web_lan|av_lan|cluster_mixed --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0;
    } else {
      return Usage();
    }
  }
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) {
      wl = &w;
    }
  }
  if (wl == nullptr || seconds <= 0 || argc % 2 == 0) {
    return Usage();
  }
  const int k = wl->sub_seeds;
  std::vector<uint64_t> seeds;
  for (int j = 0; j < k; ++j) {
    seeds.push_back(SubSeed(seed, j));
  }

  const Clock::time_point t_run = Clock::now();
  // setup_s is the median of these set-ups, rescaled to the reference
  // machine speed by the median of a speed probe after each.
  std::vector<double> setups;
  std::vector<double> setup_speed_ns;
  for (int r = 0; !trace && r < kMaxSetupReps &&
                  (r < kMinSetupReps || NsSince(t_run) * 1e-9 < kSetupRepSeconds);
       ++r) {
    Episode ep;
    wl->run(seeds[static_cast<size_t>(r % k)], Mode::kSetupOnly, &ep);
    setups.push_back(ep.setup_s);
    setup_speed_ns.push_back(Speed().Run());
  }
  // One untraced reference episode per sub-seed: modeled metrics come from
  // these, and every later episode of that sub-seed must match its
  // fingerprint. An untraced run measures them too. A traced run measures
  // only later episodes, alternating a traced and an untraced one of each
  // sub-seed, so trace.overhead compares the two under the same machine
  // conditions. Either kind stops `seconds` after the reference episodes
  // start, once it has at least one measured episode of each kind per
  // sub-seed.
  std::vector<std::unique_ptr<Episode>> refs;
  std::vector<std::unique_ptr<Episode>> extra;
  std::vector<int> extra_sub;
  EpisodeSet measured;  // the traced episodes, in a traced run
  EpisodeSet plain;     // a traced run's untraced episodes
  measured.sub_seeds = k;
  plain.sub_seeds = k;
  const Clock::time_point t_measure = Clock::now();
  for (int j = 0; j < k; ++j) {
    refs.push_back(std::make_unique<Episode>());
    wl->run(seeds[static_cast<size_t>(j)], Mode::kUntraced, refs.back().get());
    if (!trace) {
      measured.eps.push_back(refs.back().get());
      measured.sub.push_back(j);
    }
  }
  const size_t min_eps = static_cast<size_t>(k);
  for (size_t i = 0; measured.eps.size() < min_eps || (trace && plain.eps.size() < min_eps) ||
                     NsSince(t_measure) * 1e-9 < seconds;
       ++i) {
    const bool traced = trace && i % 2 == 0;
    const int j = static_cast<int>((trace ? i / 2 : i) % static_cast<size_t>(k));
    extra.push_back(std::make_unique<Episode>());
    extra_sub.push_back(j);
    wl->run(seeds[static_cast<size_t>(j)], traced ? Mode::kTraced : Mode::kUntraced,
            extra.back().get());
    EpisodeSet& set = trace && !traced ? plain : measured;
    set.eps.push_back(extra.back().get());
    set.sub.push_back(j);
  }

  std::vector<std::string> failures;
  int64_t attempted = 0;
  int64_t failed = 0;
  Fingerprint wire, content, fingerprint;
  double bytes = 0, ops = 0, good = 0;
  for (const auto& ref : refs) {
    failures.insert(failures.end(), ref->check_failures.begin(), ref->check_failures.end());
    attempted += ref->ops;
    failed += ref->failed;
    wire.Add(ref->wire_hash);
    content.Add(ref->content_hash);
    fingerprint.Add(ref->fingerprint);
    bytes += static_cast<double>(ref->bytes_to_client);
    ops += static_cast<double>(ref->ops);
    good += ref->quality * static_cast<double>(ref->ops);
  }
  for (size_t i = 0; i < extra.size(); ++i) {
    const Episode& ep = *extra[i];
    const size_t j = static_cast<size_t>(extra_sub[i]);
    attempted += ep.ops;
    failed += ep.failed;
    if (ep.fingerprint != refs[j]->fingerprint) {
      failures.push_back("episode " + std::to_string(i) + (trace && i % 2 == 0 ? " (traced)" : "") +
                         " differs from the untraced reference of its seed");
    }
  }
  // Latency per episode: the median and the tail — the highest sample with
  // at least ten samples beyond it — each averaged over the sub-seeds, so
  // the percentile stays the same whatever the number of sub-seeds.
  const size_t n = refs[0]->latency_ms.size();
  const double p50 = MeanOf(refs, [](const Episode& ep) { return Median(ep.latency_ms); });
  const double tail = MeanOf(refs, [](const Episode& ep) { return TailOf(ep.latency_ms); });
  const double tail_pct = 100.0 * (1.0 - 10.0 / static_cast<double>(std::max<size_t>(n, 11)));
  const double kb_per_op = bytes / 1024.0 / ops;
  const double quality = good / ops;

  std::printf("workload %s  seed %" PRIu64 "  trace %d  sub-seeds %d  episodes %zu + %zu  "
              "wall %.1f s\n",
              wl->name, seed, trace ? 1 : 0, k, refs.size(), extra.size(),
              NsSince(t_run) * 1e-9);
  std::printf("wire_hash %016" PRIx64 "  content_hash %016" PRIx64 "  fingerprint %016" PRIx64
              "\n",
              wire.value(), content.value(), fingerprint.value());

  std::vector<Metric> metrics;
  if (!trace) {
    const double setup_s = Median(setups) / (Median(setup_speed_ns) / kReferenceProbeNs);
    const bool av = std::strcmp(wl->name, "av_lan") == 0;
    std::printf("  %-14s %12.6f s       median of %zu set-ups\n", "setup_s", setup_s,
                setups.size());
    std::printf("  %-14s %12.3f 1/s     %zu episodes of %" PRId64 " ops over %d sub-seeds\n",
                "ops_per_s", measured.OpsPerSecond(), measured.eps.size(), refs[0]->ops, k);
    std::printf("  %-14s %12.2f MB      process peak\n", "peak_rss_mb", PeakRssMb());
    std::printf("  %-14s %12.6f         %" PRId64 " of %" PRId64 " ops failed\n", "fail_rate",
                static_cast<double>(failed) / static_cast<double>(attempted), failed, attempted);
    std::printf("  %-14s %12.3f sim_ms  median of n=%zu per episode, mean of %d\n",
                "page_ms_p50", p50, n, k);
    std::printf("  %-14s %12.3f sim_ms  p%.1f of n=%zu per episode, mean of %d\n",
                "page_ms_tail", tail, tail_pct, n, k);
    std::printf("  %-14s %12.3f KB      n=%.0f\n", "kb_per_op", kb_per_op, ops);
    if (av) {
      std::printf("  %-14s %12.4f         frames %" PRId64 "/%" PRId64 ", audio %.4f\n",
                  "av_quality", quality, refs[0]->frames_displayed, refs[0]->ops,
                  refs[0]->audio_fraction);
    } else {
      std::printf("  %-14s %12s         (av_lan only)\n", "av_quality", "n/a");
    }
    std::printf("  %-14s %12.4f         %s\n", "quality", quality,
                av ? "= av_quality" : "= 1 - fail_rate");
    metrics = {{"setup_s", setup_s, "s"},
               {"ops_per_s", measured.OpsPerSecond(), "1/s"},
               {"peak_rss_mb", PeakRssMb(), "MB"},
               {"page_ms_p50", p50, "sim_ms"},
               {"page_ms_tail", tail, "sim_ms"},
               {"kb_per_op", kb_per_op, "KB"},
               {"quality", quality, "fraction"}};
  } else {
    // Host times at the reference machine speed.
    auto host_ms = [&](const HostClass StepProbe::*cls) {
      return measured.PerEpisode(
          [cls](const Episode& ep) { return (ep.probe.*cls).ns * 1e-6 / Slowdown(ep); });
    };
    auto events = [&](const HostClass StepProbe::*cls) {
      return measured.PerEpisode(
          [cls](const Episode& ep) { return static_cast<double>((ep.probe.*cls).events); });
    };
    double coverage = 1;
    for (const Episode* ep : measured.eps) {
      const StepProbe& p = ep->probe;
      coverage = std::min(coverage,
                          (p.render.ns + p.server.ns + p.client.ns + p.net.ns) / ep->measured_ns);
    }
    if (coverage < 0.95) {
      failures.push_back("traced classes cover only " + std::to_string(coverage) +
                         " of the measured wall time");
    }
    const double render = host_ms(&StepProbe::render);
    const double raster = measured.PerEpisode(
        [](const Episode& ep) { return ep.raster_ns * 1e-6 / Slowdown(ep); });
    auto mean = [&](const std::function<double(const Episode&)>& f) { return MeanOf(refs, f); };
    metrics = {
        {"render.host_ms", render, "ms"},
        {"raster.host_ms", raster, "ms"},
        {"translate.host_ms", render - raster, "ms"},
        {"server.host_ms", host_ms(&StepProbe::server), "ms"},
        {"client.host_ms", host_ms(&StepProbe::client), "ms"},
        {"net.host_ms", host_ms(&StepProbe::net), "ms"},
        {"render.calls", events(&StepProbe::render), "count"},
        {"server.events", events(&StepProbe::server), "count"},
        {"client.events", events(&StepProbe::client), "count"},
        {"net.events", events(&StepProbe::net), "count"},
        {"loop.events", mean([](const Episode& ep) { return static_cast<double>(ep.events); }),
         "count"},
        {"loop.ns_per_event", measured.PerEpisode([](const Episode& ep) {
           return ep.measured_ns / Slowdown(ep) / static_cast<double>(ep.events);
         }),
         "ns"},
        {"machine.slowdown", measured.PerEpisode([](const Episode& ep) { return Slowdown(ep); }),
         "ratio"},
        {"trace.coverage", coverage, "fraction"},
        {"trace.ops_per_s", measured.OpsPerSecond(), "1/s"},
        {"trace.overhead", plain.OpsPerSecond() / measured.OpsPerSecond(), "ratio"},
        {"cpu.server_busy_ms", mean([](const Episode& ep) { return ep.server_busy_ms; }),
         "sim_ms"},
        {"cpu.client_busy_ms", mean([](const Episode& ep) { return ep.client_busy_ms; }),
         "sim_ms"},
        {"net.kb", mean([](const Episode& ep) { return ep.net_kb; }), "KB"},
        {"net.segments",
         mean([](const Episode& ep) { return static_cast<double>(ep.net_segments); }), "count"}};
    const std::vector<Metric> stages = StageMetrics(std::strcmp(wl->name, "web_lan") == 0);
    metrics.insert(metrics.end(), stages.begin(), stages.end());
    const std::vector<Metric> modeled = {
        {"av.frames_displayed",
         mean([](const Episode& ep) { return static_cast<double>(ep.frames_displayed); }),
         "count"},
        {"av.audio_fraction", mean([](const Episode& ep) { return ep.audio_fraction; }),
         "fraction"},
        {"fleet.max_degrade_level",
         mean([](const Episode& ep) { return static_cast<double>(ep.max_degrade_level); }),
         "count"},
        {"fleet.parked", mean([](const Episode& ep) { return static_cast<double>(ep.parked); }),
         "count"},
        {"cluster.migrations",
         mean([](const Episode& ep) { return static_cast<double>(ep.migrations); }), "count"},
        {"cluster.blackout_ms_p95", mean([](const Episode& ep) { return ep.blackout_ms_p95; }),
         "sim_ms"},
        {"fidelity.mismatched_px",
         mean([](const Episode& ep) { return static_cast<double>(ep.mismatched_px); }),
         "count"}};
    metrics.insert(metrics.end(), modeled.begin(), modeled.end());
    for (const Metric& m : metrics) {
      std::printf("  %-24s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  PrintJson(failures.empty(), attempted, failed, metrics);
  return failures.empty() ? 0 : 1;
}
