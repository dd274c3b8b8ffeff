// One THINC session: ThincServer, ThincClient and the transport joining them
// (paper Sections 2-3). ThincSystem, FleetHost and SharedSessionHost build
// and rebind every session here, so one place picks the transport class and
// the client's decode CPU (a loopback client IS the host; a remote one has
// its own terminal, created on first remote use and kept for the session's
// life). The window server stays with its host.
//
// Construction order is fixed — transport, server, window server +
// AttachWindowServer, client; then the host's input handler and viewport
// request or full refresh — since event sequence numbers, Chrome-trace pids
// and wire hashes depend on it.
#ifndef THINC_SRC_CORE_SESSION_STACK_H_
#define THINC_SRC_CORE_SESSION_STACK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/core/thinc_client.h"
#include "src/core/thinc_server.h"
#include "src/display/window_server.h"
#include "src/net/connection.h"
#include "src/net/loopback.h"
#include "src/net/lossy.h"
#include "src/net/nic.h"

namespace thinc {

// The transport a host asks for: `kind` picks the class.
struct TransportSpec {
  TransportKind kind = TransportKind::kWire;
  LinkParams link = {};                   // wire and lossy
  size_t send_buffer_bytes = 256 << 10;   // wire and lossy
  NicScheduler* nic = nullptr;            // shared uplink; null: private wire
  int64_t nic_weight = 1;
  LossyOptions loss = {};                 // lossy
  LoopbackOptions loopback = {};          // loopback
};

// The usual input handler: every event moves the pointer in `ws`; real
// clicks (button > 0 — button 0 is a position-only cursor sync) also reach
// `*app` when set.
ThincServer::InputFn ClickHandler(WindowServer* ws,
                                  const std::function<void(Point)>* app);

struct SessionStack {
  // Returns the window server `server` draws for, building it if the host
  // owns one per session.
  using WindowServerFn = std::function<WindowServer*(ThincServer* server)>;

  // Builds the stack in the fixed order. Server work charges `host_cpu`; a
  // remote client's terminal runs at `client_speed`.
  void Build(EventLoop* loop, const TransportSpec& spec, CpuAccount* host_cpu,
             double client_speed, const ThincServerOptions& server_options,
             ThincClientOptions client_options,
             const WindowServerFn& window_server);

  // Swaps in a fresh transport built from `spec` and moves the server's
  // compute to `host_cpu` before it charges more work. The old transport is
  // reset if still open and retired, not destroyed: in-loop events may still
  // fire (stale guards drop them) and its traces stay readable. The server
  // reattaches, then — with `differential`, the migration case — arms the
  // differential resync, then the client reattaches and renegotiates.
  // Returns the new transport.
  Transport* Rebind(const TransportSpec& spec, CpuAccount* host_cpu,
                    bool differential = false);

  // Bytes delivered to the client over the live and every retired transport.
  int64_t BytesDeliveredToClient() const;

  std::unique_ptr<Transport> transport;
  std::vector<std::unique_ptr<Transport>> retired;
  std::unique_ptr<ThincServer> server;
  // The remote client's terminal; null until the client first runs remote.
  std::unique_ptr<CpuAccount> client_cpu;
  std::unique_ptr<ThincClient> client;

 private:
  // Builds `spec`'s transport; returns the CPU the client decodes on over it.
  CpuAccount* MakeTransport(const TransportSpec& spec, CpuAccount* host_cpu);

  EventLoop* loop_ = nullptr;
  double client_speed_ = 1.0;
};

}  // namespace thinc

#endif  // THINC_SRC_CORE_SESSION_STACK_H_
