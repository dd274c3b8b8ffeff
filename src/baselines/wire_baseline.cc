#include "src/baselines/wire_baseline.h"

#include <algorithm>

namespace thinc {

WireBaseline::WireBaseline(EventLoop* loop, const LinkParams& server_leg,
                           int server_cpu_cores, uint8_t input_type,
                           uint8_t audio_type)
    : loop_(loop), server_cpu_(loop, kServerCpuSpeed, server_cpu_cores),
      client_cpu_(loop, kClientCpuSpeed),
      conn_(std::make_unique<Connection>(loop, server_leg)),
      out_(std::make_unique<SendQueue>(loop, conn_.get(), Transport::kServer)),
      input_type_(input_type), audio_type_(audio_type), client_leg_(conn_.get()) {
  conn_->SetReceiver(Transport::kClient,
                     [this](std::span<const uint8_t> d) { OnClientReceive(d); });
  conn_->SetReceiver(Transport::kServer,
                     [this](std::span<const uint8_t> d) { OnServerReceive(d); });
}

void WireBaseline::HostWindowServer(std::unique_ptr<DisplayDriver> driver,
                                    int32_t width, int32_t height) {
  driver_ = std::move(driver);
  server_ws_ = std::make_unique<WindowServer>(width, height, driver_.get(),
                                              &server_cpu_);
}

void WireBaseline::SetClientLeg(Transport* leg) {
  // The relay's buffer receiver on the server leg takes precedence over the
  // chassis receiver installed there at construction.
  client_leg_ = leg;
  client_leg_->SetReceiver(Transport::kClient,
                           [this](std::span<const uint8_t> d) { OnClientReceive(d); });
}

void WireBaseline::ClientClick(Point location) {
  WireWriter w;
  w.PointVal(location);
  std::vector<uint8_t> payload = w.Take();
  client_leg_->Send(Transport::kClient,
                    BuildFrame(static_cast<MsgType>(input_type_), payload));
}

void WireBaseline::SubmitAudio(std::span<const uint8_t> pcm, SimTime timestamp) {
  if (!SupportsAudio()) {
    return;
  }
  WireWriter w;
  w.I64(timestamp);
  w.U32(static_cast<uint32_t>(pcm.size()));
  w.Bytes(pcm);
  std::vector<uint8_t> payload = w.Take();
  out_->Enqueue(BuildFrame(static_cast<MsgType>(audio_type_), payload),
                loop_->now());
}

void WireBaseline::ReceiveAudio(std::span<const uint8_t> payload) {
  WireReader r(payload);
  int64_t ts;
  uint32_t len;
  if (r.I64(&ts) && r.U32(&len)) {
    audio_bytes_ += len;
  }
}

void WireBaseline::HandleServerFrame(uint8_t type, std::span<const uint8_t> payload) {
  if (type != input_type_) {
    return;
  }
  WireReader r(payload);
  Point p;
  if (!r.PointVal(&p)) {
    return;
  }
  if (server_ws_ != nullptr) {
    server_ws_->InjectInput(p);
  }
  if (input_fn_) {
    input_fn_(p);
  }
}

void WireBaseline::OnServerReceive(std::span<const uint8_t> data) {
  server_parser_.Feed(data);
  while (auto frame = server_parser_.Next()) {
    HandleServerFrame(frame->type, frame->payload);
  }
}

void WireBaseline::OnClientReceive(std::span<const uint8_t> data) {
  client_parser_.Feed(data);
  while (auto frame = client_parser_.Next()) {
    HandleClientFrame(frame->type, frame->payload);
    client_processed_at_ = std::max(client_processed_at_, client_cpu_.busy_until());
  }
}

void WireBaseline::ProbeVideo(const Region& updated, std::optional<Rect> clip) {
  if (!probe_rect_.has_value()) {
    return;
  }
  Rect probe = clip.has_value() ? probe_rect_->Intersect(*clip) : *probe_rect_;
  if (!probe.empty() && updated.Intersect(probe).Area() * 10 >= probe.area() * 3) {
    NoteVideoFrame();
  }
}

Rect WireBaseline::ScaleToViewport(const Rect& rect, const Rect& viewport) const {
  // 64-bit products: `rect` may come off the wire.
  const int64_t sw = server_ws_->screen().width();
  const int64_t sh = server_ws_->screen().height();
  auto down = [](int64_t v, int64_t to, int64_t from) {
    return static_cast<int32_t>(v * to / from);
  };
  auto up = [](int64_t v, int64_t to, int64_t from) {
    return static_cast<int32_t>((v * to + from - 1) / from);
  };
  return Rect::FromEdges(down(rect.x, viewport.width, sw),
                         down(rect.y, viewport.height, sh),
                         up(rect.right(), viewport.width, sw),
                         up(rect.bottom(), viewport.height, sh));
}

void WireBaseline::ResampleOnClient(const Rect& rect, std::span<const Pixel> pixels,
                                    const Rect& viewport, Surface* fb) {
  client_cpu_.Charge(static_cast<double>(rect.area()) *
                     cpucost::kClientResamplePerPixel);
  if (rect.empty()) {
    return;  // nothing to sample from
  }
  const int32_t sw = server_ws_->screen().width();
  const int32_t sh = server_ws_->screen().height();
  Rect dst = ScaleToViewport(rect, viewport).Intersect(fb->bounds());
  // Nearest-neighbour: the cheap algorithm a constrained client uses
  // (ICA/GoToMyPC display quality is "barely readable").
  for (int32_t y = dst.y; y < dst.bottom(); ++y) {
    for (int32_t x = dst.x; x < dst.right(); ++x) {
      int32_t sx = std::clamp(x * sw / viewport.width - rect.x, 0, rect.width - 1);
      int32_t sy = std::clamp(y * sh / viewport.height - rect.y, 0, rect.height - 1);
      fb->Put(x, y, pixels[static_cast<size_t>(sy) * rect.width + sx]);
    }
  }
}

}  // namespace thinc
