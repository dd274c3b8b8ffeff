#include "src/baselines/thinc_system.h"

namespace thinc {

namespace {

ThincServerOptions WithProfileLadder(ThincServerOptions options,
                                     const DeviceProfile& profile) {
  options.ladder = profile.ladder;
  return options;
}

ThincClientOptions WithProfileName(ThincClientOptions options,
                                   const DeviceProfile& profile) {
  options.telemetry_host = "thinc-client-" + profile.name;
  return options;
}

}  // namespace

ThincSystem::ThincSystem(EventLoop* loop, const LinkParams& link,
                         int32_t screen_width, int32_t screen_height,
                         ThincServerOptions server_options,
                         ThincClientOptions client_options,
                         int server_cpu_cores, TransportKind transport_kind,
                         const LossyOptions& lossy_options,
                         double client_decode_speed)
    : server_cpu_(loop, kServerCpuSpeed, server_cpu_cores),
      spec_{.kind = transport_kind, .link = link, .loss = lossy_options} {
  stack_.Build(loop, spec_, &server_cpu_,
               kClientCpuSpeed * client_decode_speed, server_options,
               client_options, [&](ThincServer* server) {
                 window_server_ = std::make_unique<WindowServer>(
                     screen_width, screen_height, server, &server_cpu_);
                 return window_server_.get();
               });
  stack_.server->SetInputHandler(
      ClickHandler(window_server_.get(), &input_fn_));
}

ThincSystem::ThincSystem(EventLoop* loop, const DeviceProfile& profile,
                         const LinkParams& link, int32_t screen_width,
                         int32_t screen_height,
                         ThincServerOptions server_options,
                         ThincClientOptions client_options,
                         int server_cpu_cores)
    : ThincSystem(loop, profile.link.value_or(link), screen_width,
                  screen_height, WithProfileLadder(server_options, profile),
                  WithProfileName(client_options, profile), server_cpu_cores,
                  profile.lossy ? TransportKind::kLossy : TransportKind::kWire,
                  profile.loss, profile.decode_speed) {
  if (profile.NegotiatesViewport(screen_width, screen_height)) {
    stack_.client->RequestViewport(profile.screen_width, profile.screen_height);
  }
}

Transport* ThincSystem::Reconnect(const LinkParams& link,
                                  std::optional<TransportKind> kind) {
  spec_.link = link;
  spec_.kind = kind.value_or(spec_.kind);
  return stack_.Rebind(spec_, &server_cpu_);
}

void ThincSystem::ClientClick(Point location) {
  stack_.client->SendInput(location, /*button=*/1);
}

void ThincSystem::SetViewport(int32_t width, int32_t height) {
  stack_.client->RequestViewport(width, height);
}

const std::vector<SimTime>& ThincSystem::VideoFrameTimes() const {
  video_frame_times_.clear();
  for (const VideoFrameArrival& f : stack_.client->video_frames()) {
    video_frame_times_.push_back(f.time);
  }
  return video_frame_times_;
}

int64_t ThincSystem::AudioBytesDelivered() const {
  int64_t total = 0;
  for (const AudioChunkArrival& chunk : stack_.client->audio_chunks()) {
    total += static_cast<int64_t>(chunk.bytes);
  }
  return total;
}

}  // namespace thinc
