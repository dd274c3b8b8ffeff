// The THINC client: a simple stateless display that translates protocol
// commands into (emulated) hardware operations on its local framebuffer.
//
// Mirrors the paper's client design: it holds only transient soft state (the
// framebuffer), accelerates COPY/fills/video-overlay in "hardware", and
// forwards input to the server.
#ifndef THINC_SRC_CORE_THINC_CLIENT_H_
#define THINC_SRC_CORE_THINC_CLIENT_H_

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/codec/rc4.h"
#include "src/core/command.h"
#include "src/net/transport.h"
#include "src/protocol/wire.h"
#include "src/raster/surface.h"
#include "src/raster/yuv.h"
#include "src/util/cpu.h"
#include "src/util/event_loop.h"

namespace thinc {

struct ThincClientOptions {
  bool encrypt = true;    // must match the server
  // Client-pull mode (ablation): the client must request updates.
  bool client_pull = false;
  // Chrome-trace host name registered for this client's pid. Device
  // profiles name it by class ("thinc-client-phone") so mixed-population
  // traces stay distinguishable.
  std::string telemetry_host = "thinc-client";
};

// Arrival record for one displayed video frame (A/V quality measurement).
struct VideoFrameArrival {
  int32_t stream_id;
  SimTime time;
  SimTime server_timestamp = 0;
};

// Arrival record for one audio chunk.
struct AudioChunkArrival {
  SimTime server_timestamp;
  SimTime time;
  size_t bytes;
};

class ThincClient {
 public:
  ThincClient(EventLoop* loop, Transport* conn, CpuAccount* cpu, int32_t fb_width,
              int32_t fb_height, ThincClientOptions options = {});

  const Surface& framebuffer() const { return framebuffer_; }

  // --- User actions ----------------------------------------------------------
  void SendInput(Point location, int32_t button);
  // Reports this client's display size; the server resizes all subsequent
  // updates (Section 6). Resizes the local framebuffer.
  void RequestViewport(int32_t width, int32_t height);
  void RequestUpdate();  // client-pull mode

  // --- Reconnect (fault tolerance) -------------------------------------------
  // When the connection is hard-reset, the client drops transport state (a
  // half-parsed frame, cipher position, stream table) but keeps its
  // framebuffer: the last complete picture stays on screen until resync.
  // Attach() rebinds to a fresh connection and renegotiates the session —
  // viewport (which triggers the server's full-screen resync update) and
  // cursor position; in pull mode it also re-arms the update request.
  // `cpu` optionally rebinds where the client's decode work is booked — a
  // transport-kind switch (wire client CPU <-> co-located host CPU) moves
  // the decode cost with it. nullptr keeps the current account.
  void Attach(Transport* conn, CpuAccount* cpu = nullptr);
  bool connected() const { return connected_; }

  // --- Measurement -------------------------------------------------------------
  int64_t commands_applied() const { return commands_applied_; }
  int64_t frames_received() const { return frames_received_; }
  // Completion time (virtual) of the last processed display update,
  // including client CPU processing — the instrumented "client processing
  // time" measurement of Section 8.2.
  SimTime last_processed_at() const { return last_processed_at_; }
  const std::vector<VideoFrameArrival>& video_frames() const { return video_frames_; }
  const std::vector<AudioChunkArrival>& audio_chunks() const { return audio_chunks_; }

  // Worst audio-vs-video delivery skew observed (microseconds): the spread
  // between each medium's server-to-client delay. Both streams carry server
  // timestamps, so the client can quantify how far playback would drift
  // without compensation. Returns 0 unless both media have been received.
  SimTime MaxAvSkew() const;

  // Per-message-type protocol statistics (frames and payload bytes
  // received), indexed by MsgType value. The command-mix view the paper
  // uses when discussing which primitives carry the data.
  struct TypeStats {
    int64_t frames = 0;
    int64_t payload_bytes = 0;
  };
  const std::array<TypeStats, 16>& type_stats() const { return type_stats_; }

 private:
  void OnReceive(std::span<const uint8_t> data);
  void HandleFrame(uint8_t type, std::span<const uint8_t> payload);
  // Charges client CPU, folds the completion time into last_processed_at_,
  // and returns it (telemetry stamps decode/damage with it).
  SimTime ChargeAndStamp(double cost_us);
  void MaybeRearmPull();
  // Wires receive/closed callbacks to the current connection (with a stale-
  // connection guard on the closed callback).
  void BindConnection();
  // Encrypts (if configured) and sends one wire frame; false when the
  // connection is closed/gone and the frame was dropped.
  bool SendFrame(std::vector<uint8_t> frame);

  EventLoop* loop_;
  Transport* conn_;
  CpuAccount* cpu_;
  ThincClientOptions options_;
  Surface framebuffer_;

  std::optional<Rc4Cipher> tx_cipher_;
  std::optional<Rc4Cipher> rx_cipher_;
  FrameParser parser_;

  struct StreamState {
    int32_t src_width = 0;
    int32_t src_height = 0;
    Rect dst;
  };
  std::map<int32_t, StreamState> streams_;

  bool pull_outstanding_ = false;
  bool pull_rearm_scheduled_ = false;

  // Chrome-trace pid of this simulated client host (0 when telemetry was
  // inactive at construction).
  int telemetry_pid_ = 0;

  // Reconnect state.
  bool connected_ = true;
  Point last_pointer_{0, 0};  // re-sent on Attach() (cursor renegotiation)

  int64_t commands_applied_ = 0;
  int64_t frames_received_ = 0;
  std::array<TypeStats, 16> type_stats_{};
  SimTime last_processed_at_ = 0;
  std::vector<VideoFrameArrival> video_frames_;
  std::vector<AudioChunkArrival> audio_chunks_;
};

}  // namespace thinc

#endif  // THINC_SRC_CORE_THINC_CLIENT_H_
