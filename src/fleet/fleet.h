// Multi-tenant THINC host: N independent server/client sessions sharing one
// simulated machine.
//
// The paper's scaling argument (Section 2: a single server "can maintain a
// large number of active thin clients") rests on the server-push, low-level
// command architecture staying cheap per session. Everything in the repo so
// far exercised one session per host — each ThincSystem got a private CPU
// account and a private wire, so inter-session contention was invisible. A
// FleetHost closes that gap with four pieces:
//
//   * Shared CPU — every session's ThincServer and WindowServer charge the
//     SAME CpuAccount, so per-session render/encode work serializes through
//     one host busy-until watermark exactly as the per-session work already
//     did on its private account. No new CPU model: contention emerges from
//     the existing charges landing on one queue.
//   * Shared NIC — every session's downstream (server→client) traffic is
//     arbitrated by a NicScheduler (weighted start-time fair queueing) in
//     front of its Connection, replacing the one-private-wire-per-connection
//     assumption. Upstream input traffic is negligible and keeps the
//     private wire.
//   * Admission control — a session is admitted only while the sum of
//     declared per-session demand fits under a configured CPU and NIC
//     headroom; beyond that it is parked (counted, not instantiated) or
//     rejected outright.
//   * Overload degradation — a periodic controller watches host CPU/NIC lag
//     and per-session backlog and walks each session up/down a 4-level
//     ladder of paper mechanisms (flush-window stretch, tighter scheduler
//     backlog cap, video decimation, SRSF starvation limit; see
//     ThincServer::SetDegradationLevel) so overload degrades per-session
//     quality gracefully instead of collapsing latency for everyone.
//
// Determinism: session i's workload seed is derived from the fleet seed by a
// bijective mix (distinct ids can never share a stream), all arbitration
// tie-breaks are by session/flow id, and the controller reads only
// virtual-time state — fleet runs are bit-reproducible and telemetry on/off
// cannot change wire bytes or virtual time. A 1-session fleet degenerates to
// the non-fleet ThincSystem path byte-for-byte.
#ifndef THINC_SRC_FLEET_FLEET_H_
#define THINC_SRC_FLEET_FLEET_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/session_stack.h"
#include "src/device/device.h"
#include "src/display/window_server.h"
#include "src/net/nic.h"
#include "src/util/cpu.h"
#include "src/util/event_loop.h"
#include "src/util/prng.h"

namespace thinc {

// Declared per-session resource demand, used by admission control. Callers
// measure it once at N=1 (reference-speed CPU microseconds and downstream
// bytes per second of workload) and declare it for every further session.
struct FleetSessionDemand {
  double cpu_us_per_sec = 0;
  int64_t nic_bytes_per_sec = 0;
};

struct FleetOptions {
  int32_t screen_width = 1024;
  int32_t screen_height = 768;
  // The shared uplink and the per-session link characteristics. The link's
  // bandwidth field is the physical NIC rate: with one session attached the
  // shared wire is indistinguishable from a private link of that bandwidth.
  LinkParams link;
  // Host CPU speed relative to the reference machine (the testbed server is
  // 2.0x; see kServerCpuSpeed). Clients run at 1.0x.
  double cpu_speed = 2.0;
  // Cores on the shared host CPU (the paper's server is a dual-CPU PIII).
  // Session work spreads over the K per-core watermarks and large encodes
  // slice across idle cores; admission capacity scales linearly. Virtual
  // timing only — wire bytes are identical at any K (DESIGN.md §12).
  int cpu_cores = 1;
  uint64_t seed = 1;
  // Admission: sessions are admitted while the summed declared demand stays
  // under headroom * capacity on BOTH resources.
  double cpu_headroom = 0.9;
  double nic_headroom = 0.9;
  // Beyond-capacity sessions are parked (admissible later if capacity
  // frees) rather than rejected.
  bool park_beyond_capacity = true;
  // Per-session socket send buffer. Bytes committed here are un-sheddable
  // (the ladder's coalescing and fidelity downshift only reach the
  // scheduler), so deployments size it near the per-session share of the
  // link's bandwidth-delay product rather than the 256 KiB desktop default.
  size_t send_buffer_bytes = 256 << 10;
  // Overload controller: sampling period and per-session hysteresis (ticks
  // of sustained pressure before degrading).
  bool degradation_enabled = true;
  SimTime control_interval = 100 * kMillisecond;
  int ticks_to_degrade = 2;
  // How far behind real time the shared CPU or NIC must run before the host
  // counts as overloaded. A transient page burst parks a bounded backlog
  // that drains within a burst time; genuine oversubscription grows the lag
  // without bound, so a threshold deeper than one burst separates the two.
  SimTime overload_lag = 500 * kMillisecond;
  // Template for every session's server (telemetry_host is overridden with
  // a per-session name so Chrome traces get one pid per session).
  ThincServerOptions server_options;
  ThincClientOptions client_options;
  // Transport for sessions added with local=true: co-located clients get a
  // shared-memory LoopbackTransport instead of a wire (no NIC contention;
  // handoffs and client decode charge the shared host CPU).
  LoopbackOptions loopback;
  // Chrome-trace host-name prefix for per-session pids (the slot id is
  // appended). A cluster overrides it per host ("cluster-h2-session-") so
  // traces from many hosts stay distinguishable.
  std::string session_name_prefix = "fleet-session-";
};

// One admitted session's complete state: the full server/client stack plus
// the identity (seed, PRNG stream, declared demand) that must survive a live
// migration to another FleetHost. Owned by its current host; ExtractSession
// releases it for a ClusterController to move.
struct FleetSession : SessionStack {
  size_t id = 0;  // slot index on the CURRENT host (reassigned on insert)
  uint64_t seed = 0;
  bool local = false;
  // Demand as DECLARED at cluster/fleet admission. Hosts account the
  // effective demand (NIC zeroed while local) so a session migrating from a
  // co-located slot back to a remote one regains its NIC share.
  FleetSessionDemand demand;
  // The device this session serves. Travels with the session across
  // migrations: the destination host rebuilds the same kind of transport
  // (lossy WAN for phones), reuses the profile's link override and decode
  // speed, and the controller keeps applying the profile's ladder.
  DeviceProfile profile;
  std::unique_ptr<WindowServer> ws;
  Prng prng{1};
  std::function<void(Point)> input_fn;
  // Controller hysteresis state (travels with the session: its degradation
  // level does too, and the new host's controller restores it when calm).
  int over_ticks = 0;
  int under_ticks = 0;
};

class FleetHost {
 public:
  enum class Admission { kAdmitted, kParked, kRejected };

  using InputFn = std::function<void(Point)>;

  FleetHost(EventLoop* loop, FleetOptions options);

  // Admission-checks `demand` and, if admitted, instantiates the session
  // with server and window server on the shared CPU. Remote sessions
  // (local=false) get a wire on the shared NIC with `weight`; local ones a
  // loopback, so only their CPU demand counts toward admission. Returns the
  // outcome; ids are assigned densely in admission order.
  //
  // `profile` describes the device the session serves (default: desktop,
  // which reproduces the historical behaviour byte-for-byte). A non-desktop
  // profile can override the per-session link, swap the wire for a lossy WAN
  // path (deterministic per-session loss seed), scale the client's decode
  // CPU, install a device-specific degradation schedule, and negotiate a
  // smaller viewport at session start.
  Admission AddSession(const FleetSessionDemand& demand, int64_t weight = 1,
                       bool local = false, const DeviceProfile& profile = {});

  // Deterministic per-session seed: a bijective splitmix64-style mix of
  // (fleet_seed, id), so two sessions of one fleet can never share a PRNG
  // stream (THINC_CHECKed against the effective seeds at session creation).
  static uint64_t DeriveSessionSeed(uint64_t fleet_seed, uint64_t session_id);

  // Starts the periodic overload controller; it stops rescheduling once the
  // next tick would land past `until`, so EventLoop::Run() terminates.
  void StartController(SimTime until);

  // --- Cluster hooks ---------------------------------------------------------
  // Instantaneous host pressure, the same math the periodic controller
  // samples: max-per-core CPU lag, NIC drain lag of socket-resident bytes,
  // and total uplink demand lag (sockets + scheduler backlogs).
  struct OverloadSignals {
    SimTime cpu_lag_us = 0;
    SimTime nic_lag_us = 0;
    SimTime nic_demand_lag_us = 0;
  };
  OverloadSignals ComputeOverloadSignals() const;
  // Would `demand` be admitted right now (no side effects)?
  bool CanAdmit(const FleetSessionDemand& demand, bool local = false) const {
    return FitsHeadroom(demand, local);
  }
  // Summed effective demand of the sessions currently on this host.
  double admitted_cpu_us_per_sec() const { return admitted_cpu_us_per_sec_; }
  int64_t admitted_nic_bytes_per_sec() const {
    return admitted_nic_bytes_per_sec_;
  }

  // Releases session `id` for a live migration: its transport is reset (the
  // client parks on its last applied frame; the server parks its virtual
  // display state — PR 1 reconnect machinery), its demand leaves this host's
  // admission sums, and its slot becomes a tombstone (other ids keep their
  // meaning; per-session accessors must not be called on it again).
  std::unique_ptr<FleetSession> ExtractSession(size_t id);
  // Installs a migrated-in session: admission-checks its declared demand,
  // moves window-server compute to this host's CPU, and rebinds the stack
  // onto this host (NIC wire, or loopback when local=true) with the
  // differential resync armed. Returns the new slot id, or nullopt when the
  // demand does not fit — the session is handed back unmodified.
  std::optional<size_t> InsertSession(std::unique_ptr<FleetSession>* session,
                                      int64_t weight = 1, bool local = false);

  // --- Per-session access (id < session_count(), slot not extracted) --------
  size_t session_count() const { return sessions_.size(); }
  // Slots currently occupied (session_count() minus migrated-out tombstones).
  size_t live_session_count() const { return live_sessions_; }
  bool has_session(size_t id) const {
    return id < sessions_.size() && sessions_[id] != nullptr;
  }
  FleetSession* session(size_t id) { return sessions_[id].get(); }
  size_t parked_count() const { return parked_; }
  size_t rejected_count() const { return rejected_; }

  ThincServer* server(size_t id) { return sessions_[id]->server.get(); }
  ThincClient* client(size_t id) { return sessions_[id]->client.get(); }
  WindowServer* window_server(size_t id) { return sessions_[id]->ws.get(); }
  // The session's transport, whatever its kind.
  Transport* transport(size_t id) { return sessions_[id]->transport.get(); }
  // The wire connection of a remote session; null for local sessions.
  Connection* connection(size_t id) {
    return is_local(id) ? nullptr : static_cast<Connection*>(transport(id));
  }
  bool is_local(size_t id) const { return sessions_[id]->local; }
  size_t local_count() const { return local_count_; }
  // The session's device profile (desktop unless set at AddSession).
  const DeviceProfile& profile(size_t id) const {
    return sessions_[id]->profile;
  }
  // The session's private workload PRNG stream.
  Prng* prng(size_t id) { return &sessions_[id]->prng; }
  uint64_t session_seed(size_t id) const { return sessions_[id]->seed; }
  int degradation_level(size_t id) const {
    return sessions_[id]->server->degradation_level();
  }

  // A click at session `id`'s client (traverses the network like any input).
  void ClientClick(size_t id, Point location);
  // Application-side callback for session `id`'s real clicks (button > 0).
  void SetInputCallback(size_t id, InputFn fn);

  EventLoop* loop() { return loop_; }
  CpuAccount* host_cpu() { return &host_cpu_; }
  NicScheduler* nic() { return &nic_; }
  const FleetOptions& options() const { return options_; }

  // Predicted capacity in sessions for `demand` (admission math, exposed so
  // benches can report the predicted knee next to the measured one).
  int PredictedCapacity(const FleetSessionDemand& demand) const;

 private:
  bool FitsHeadroom(const FleetSessionDemand& demand, bool local) const;
  // The transport `s` gets on this host: loopback on the host CPU when
  // local, else its profile's wire (or lossy path) on the shared NIC.
  TransportSpec SpecFor(const FleetSession& s, int64_t weight, bool local);
  // Checks `s`'s PRNG stream is unique here, adds its effective demand to
  // the admission sums, and stores it in the next slot (id == index).
  void Place(std::unique_ptr<FleetSession> s);
  void ControllerTick(SimTime until);

  EventLoop* loop_;
  FleetOptions options_;
  CpuAccount host_cpu_;
  NicScheduler nic_;
  // Slot id -> session; a migrated-out slot holds nullptr forever.
  std::vector<std::unique_ptr<FleetSession>> sessions_;
  // Summed EFFECTIVE demand of sessions currently on the host (local
  // sessions contribute no NIC share).
  double admitted_cpu_us_per_sec_ = 0;
  int64_t admitted_nic_bytes_per_sec_ = 0;
  size_t parked_ = 0;
  size_t rejected_ = 0;
  size_t local_count_ = 0;
  size_t live_sessions_ = 0;
  bool controller_running_ = false;
};

}  // namespace thinc

#endif  // THINC_SRC_FLEET_FLEET_H_
