#include "src/core/session_stack.h"

namespace thinc {

ThincServer::InputFn ClickHandler(WindowServer* ws,
                                  const std::function<void(Point)>* app) {
  return [ws, app](Point p, int32_t button) {
    ws->InjectInput(p);
    if (button > 0 && *app) {
      (*app)(p);
    }
  };
}

CpuAccount* SessionStack::MakeTransport(const TransportSpec& spec,
                                        CpuAccount* host_cpu) {
  if (spec.kind == TransportKind::kLoopback) {
    // Handoffs and the client's decode both charge the host CPU.
    transport =
        std::make_unique<LoopbackTransport>(loop_, host_cpu, spec.loopback);
    return host_cpu;
  }
  std::unique_ptr<Connection> wire;
  if (spec.kind == TransportKind::kLossy) {
    wire = std::make_unique<LossyTransport>(loop_, spec.link, spec.loss,
                                            spec.send_buffer_bytes);
  } else {
    wire = std::make_unique<Connection>(loop_, spec.link,
                                        spec.send_buffer_bytes);
  }
  if (spec.nic != nullptr) {
    wire->AttachUplink(spec.nic, spec.nic_weight);
  }
  transport = std::move(wire);
  if (client_cpu == nullptr) {
    client_cpu = std::make_unique<CpuAccount>(loop_, client_speed_);
  }
  return client_cpu.get();
}

void SessionStack::Build(EventLoop* loop, const TransportSpec& spec,
                         CpuAccount* host_cpu, double client_speed,
                         const ThincServerOptions& server_options,
                         ThincClientOptions client_options,
                         const WindowServerFn& window_server) {
  loop_ = loop;
  client_speed_ = client_speed;
  CpuAccount* decode_cpu = MakeTransport(spec, host_cpu);
  // Keep push/pull settings coherent across the pair.
  client_options.client_pull = !server_options.server_push;
  client_options.encrypt = server_options.encrypt;
  server = std::make_unique<ThincServer>(loop, transport.get(), host_cpu,
                                         server_options);
  WindowServer* ws = window_server(server.get());
  server->AttachWindowServer(ws);
  client = std::make_unique<ThincClient>(loop, transport.get(), decode_cpu,
                                         ws->screen_width(),
                                         ws->screen_height(), client_options);
}

Transport* SessionStack::Rebind(const TransportSpec& spec,
                                CpuAccount* host_cpu, bool differential) {
  if (!transport->closed()) {
    // Rebinding over a live transport implies abandoning it first.
    transport->Reset();
  }
  retired.push_back(std::move(transport));
  CpuAccount* decode_cpu = MakeTransport(spec, host_cpu);
  server->RebindCpu(host_cpu);
  server->Attach(transport.get());
  if (differential) {
    server->ArmDifferentialResync();
  }
  client->Attach(transport.get(), decode_cpu);
  return transport.get();
}

int64_t SessionStack::BytesDeliveredToClient() const {
  int64_t total = transport->BytesDeliveredTo(Transport::kClient);
  for (const auto& t : retired) {
    total += t->BytesDeliveredTo(Transport::kClient);
  }
  return total;
}

}  // namespace thinc
