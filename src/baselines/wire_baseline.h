// WireBaseline: the chassis the wire comparators (Sun Ray, RDP/ICA, VNC and
// GoToMyPC, X and NX) share. What differs between them — where the GUI runs,
// where output is intercepted, push vs pull, compression, resize model,
// caches — is what Section 8 measures, and stays in each system. What is
// the same is plumbing, and lives here once:
//
//   * the server/client CPU pair (Section 8.1's testbed speeds);
//   * the server leg's Connection, the ordered SendQueue out of it, and the
//     frame parsers on both ends, whose loops hand every frame to the
//     system's HandleClientFrame / HandleServerFrame;
//   * the input path: a click leaves the client as the system's kInput
//     frame and, at the server, reaches the server window server (if the
//     GUI runs there) and the application's input callback;
//   * the measurement surface of Section 8.2: bytes to the client, last
//     delivery, client processing time, displayed video frames and audio;
//   * plain PCM audio, the screen-scraper video-probe rule, and the
//     nearest-neighbour client-side resize of ICA and GoToMyPC.
//
// Each system passes its own wire type codes for input and audio, so its
// wire bytes are its own.
#ifndef THINC_SRC_BASELINES_WIRE_BASELINE_H_
#define THINC_SRC_BASELINES_WIRE_BASELINE_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/baselines/send_queue.h"
#include "src/baselines/system.h"
#include "src/display/window_server.h"
#include "src/net/connection.h"
#include "src/protocol/wire.h"

namespace thinc {

class WireBaseline : public RemoteDisplaySystem {
 public:
  // The transports' callbacks hold `this`.
  WireBaseline(const WireBaseline&) = delete;
  WireBaseline& operator=(const WireBaseline&) = delete;

  // The server window server when the GUI runs on the server; systems whose
  // GUI runs elsewhere override this.
  DrawingApi* api() override { return server_ws_.get(); }
  CpuAccount* app_cpu() override { return &server_cpu_; }
  void ClientClick(Point location) override;
  void SetInputCallback(InputFn fn) override { input_fn_ = std::move(fn); }
  bool SupportsAudio() const override { return audio_type_ != kNoAudio; }
  // Plain PCM, sent as it leaves the audio driver.
  void SubmitAudio(std::span<const uint8_t> pcm, SimTime timestamp) override;
  void SetVideoProbeRect(const Rect& rect) override { probe_rect_ = rect; }

  int64_t BytesToClient() const override {
    return client_leg_->BytesDeliveredTo(Transport::kClient);
  }
  SimTime LastDeliveryToClient() const override {
    return client_leg_->LastDeliveryTo(Transport::kClient);
  }
  SimTime ClientLastProcessedAt() const override { return client_processed_at_; }
  const std::vector<SimTime>& VideoFrameTimes() const override {
    return video_frame_times_;
  }
  int64_t AudioBytesDelivered() const override { return audio_bytes_; }

 protected:
  // Wire type code of a system without an audio channel.
  static constexpr uint8_t kNoAudio = 0;

  // `server_leg` is the link out of the server; `input_type` and
  // `audio_type` are the system's wire codes (kNoAudio for none).
  WireBaseline(EventLoop* loop, const LinkParams& server_leg,
               int server_cpu_cores, uint8_t input_type, uint8_t audio_type);

  // Runs the GUI on the server: a window server on the server CPU whose
  // output `driver` intercepts.
  void HostWindowServer(std::unique_ptr<DisplayDriver> driver, int32_t width,
                        int32_t height);

  // Routes the client through `leg` (the far leg of a relay): clicks leave
  // on it, and frames for the client arrive on it.
  void SetClientLeg(Transport* leg);
  Transport* client_leg() const { return client_leg_; }

  // One frame that reached the client. The chassis stamps client processing
  // time after each.
  virtual void HandleClientFrame(uint8_t type, std::span<const uint8_t> payload) = 0;
  // One frame that reached the server. The default decodes the input frame.
  virtual void HandleServerFrame(uint8_t type, std::span<const uint8_t> payload);

  // Counts the PCM bytes of an audio frame that starts (timestamp, length).
  void ReceiveAudio(std::span<const uint8_t> payload);
  // A video frame was displayed at the client now.
  void NoteVideoFrame() { video_frame_times_.push_back(loop_->now()); }
  // Screen scrapers lose frame identity: an update whose `updated` region
  // covers at least 30% of the probe rect (clipped to `clip`, if any) counts
  // as a displayed video frame.
  void ProbeVideo(const Region& updated, std::optional<Rect> clip = std::nullopt);

  // Wire bytes (a whole number of pixels) as pixels. An empty rect's bytes
  // give no pixels and copy nothing.
  static std::vector<Pixel> PixelsFromBytes(std::span<const uint8_t> bytes);
  // Maps a screen rect onto a `viewport`-sized client by edge scaling.
  Rect ScaleToViewport(const Rect& rect, const Rect& viewport) const;
  // Client-side resize: nearest-neighbour resamples full-size `pixels` at
  // `rect` into `fb` (a `viewport`-sized client) on the slow client CPU.
  void ResampleOnClient(const Rect& rect, std::span<const Pixel> pixels,
                        const Rect& viewport, Surface* fb);

  EventLoop* loop_;
  CpuAccount server_cpu_;
  CpuAccount client_cpu_;
  std::unique_ptr<Transport> conn_;  // server leg
  std::unique_ptr<SendQueue> out_;   // server -> client
  std::unique_ptr<DisplayDriver> driver_;    // intercepts server_ws_ output
  std::unique_ptr<WindowServer> server_ws_;  // null when the GUI is remote

 private:
  void OnClientReceive(std::span<const uint8_t> data);
  void OnServerReceive(std::span<const uint8_t> data);

  const uint8_t input_type_;
  const uint8_t audio_type_;
  Transport* client_leg_;
  FrameParser client_parser_;
  FrameParser server_parser_;
  InputFn input_fn_;
  SimTime client_processed_at_ = 0;
  std::vector<SimTime> video_frame_times_;
  std::optional<Rect> probe_rect_;
  int64_t audio_bytes_ = 0;
};

}  // namespace thinc

#endif  // THINC_SRC_BASELINES_WIRE_BASELINE_H_
