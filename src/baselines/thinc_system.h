// THINC assembled as a complete system-under-test: window server +
// ThincServer driver on the server host, ThincClient on the client host,
// one simulated connection between them.
#ifndef THINC_SRC_BASELINES_THINC_SYSTEM_H_
#define THINC_SRC_BASELINES_THINC_SYSTEM_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/baselines/system.h"
#include "src/core/session_stack.h"
#include "src/device/device.h"
#include "src/display/window_server.h"

namespace thinc {

class ThincSystem : public RemoteDisplaySystem {
 public:
  // `server_cpu_cores` models a K-core server host (the paper's server is a
  // dual-CPU PIII); it changes only virtual timing, never wire bytes.
  // `transport_kind` selects the wire (default) or a same-host loopback
  // transport; a loopback session's client decodes on the server host CPU
  // (it IS the host) and `link` only matters for later wire Reconnects.
  ThincSystem(EventLoop* loop, const LinkParams& link, int32_t screen_width,
              int32_t screen_height, ThincServerOptions server_options = {},
              ThincClientOptions client_options = {},
              int server_cpu_cores = 1,
              TransportKind transport_kind = TransportKind::kWire,
              const LossyOptions& lossy_options = {},
              double client_decode_speed = 1.0);

  // Device-profile construction: the profile supplies the transport kind
  // (lossy WAN when profile.lossy), an optional link override, the client's
  // decode CPU speed, the server's degradation schedule, and — when the
  // device panel is smaller than the hosted desktop — the viewport the
  // client negotiates at session start (server-side Fant resize).
  ThincSystem(EventLoop* loop, const DeviceProfile& profile,
              const LinkParams& link, int32_t screen_width,
              int32_t screen_height, ThincServerOptions server_options = {},
              ThincClientOptions client_options = {},
              int server_cpu_cores = 1);

  std::string name() const override { return "THINC"; }
  DrawingApi* api() override { return window_server_.get(); }
  CpuAccount* app_cpu() override { return &server_cpu_; }

  void ClientClick(Point location) override;
  void SetInputCallback(InputFn fn) override { input_fn_ = std::move(fn); }

  bool SupportsViewport() const override { return true; }
  void SetViewport(int32_t width, int32_t height) override;

  void SubmitAudio(std::span<const uint8_t> pcm, SimTime timestamp) override {
    stack_.server->SubmitAudio(pcm, timestamp);
  }

  int64_t BytesToClient() const override {
    return stack_.BytesDeliveredToClient();
  }
  SimTime LastDeliveryToClient() const override {
    return stack_.transport->LastDeliveryTo(Transport::kClient);
  }
  SimTime ClientLastProcessedAt() const override {
    return stack_.client->last_processed_at();
  }
  const std::vector<SimTime>& VideoFrameTimes() const override;
  int64_t AudioBytesDelivered() const override;
  const Surface* ClientFramebuffer() const override {
    return &stack_.client->framebuffer();
  }

  // Replaces the (typically reset) transport with a fresh one over `link` —
  // of the same kind by default, or of `kind` when given (wire <-> loopback
  // switches model a session migrating between remote and co-located hosts)
  // — through SessionStack::Rebind. Returns the new transport.
  Transport* Reconnect(const LinkParams& link,
                       std::optional<TransportKind> kind = std::nullopt);
  TransportKind transport_kind() const { return spec_.kind; }

  // Direct access for tests and detailed benchmarks.
  WindowServer* window_server() { return window_server_.get(); }
  ThincServer* server() { return stack_.server.get(); }
  ThincClient* client() { return stack_.client.get(); }
  Transport* connection() { return stack_.transport.get(); }
  // The client's terminal; null while a loopback session has never run
  // remote (its client decodes on app_cpu()).
  CpuAccount* client_cpu() { return stack_.client_cpu.get(); }

 private:
  CpuAccount server_cpu_;
  // The transport the next Reconnect builds: kind, link and loss model.
  TransportSpec spec_;
  SessionStack stack_;
  std::unique_ptr<WindowServer> window_server_;
  InputFn input_fn_;
  mutable std::vector<SimTime> video_frame_times_;
};

}  // namespace thinc

#endif  // THINC_SRC_BASELINES_THINC_SYSTEM_H_
