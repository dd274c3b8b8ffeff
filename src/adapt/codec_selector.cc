#include "src/adapt/codec_selector.h"

namespace thinc {
namespace {

// Updates below this pixel count never take the delta path: the block
// grid + header overhead dominates, and small updates already encode
// uncompressed (mirrors RawCommand::kCompressThresholdPixels).
constexpr int64_t kMinDeltaPixels = 2048;

// Delta is preferred when the estimated bandwidth is at or below this
// (the link, not the codec, is the bottleneck) ...
constexpr int64_t kDeltaMaxBandwidthBps = 50'000'000;
// ... or the estimated RTT is at or above this (WAN-shaped path: every
// byte saved shortens the window-bound delivery tail).
constexpr SimTime kDeltaMinRtt = 10 * kMillisecond;

// At or below this bandwidth the selector also subsamples fidelity —
// the adaptive equivalent of the ladder's fidelity rung, reached per
// connection instead of per host.
constexpr int64_t kSubsampleMaxBandwidthBps = 2'000'000;

// Degradation-ladder level at which the host forces at-least-delta
// regardless of the estimate (the codec rung between backlog caps and
// fidelity subsampling).
constexpr int kLadderForceLevel = 2;

}  // namespace

CodecChoice CodecSelector::Choose(int64_t update_pixels,
                                  int degradation_level) const {
  if (!options_.enabled || update_pixels < kMinDeltaPixels) {
    return CodecChoice::kIntra;
  }
  bool bw_known = estimator_ != nullptr && estimator_->HasBandwidth();
  bool rtt_known = estimator_ != nullptr && estimator_->HasRtt();
  bool forced = degradation_level >= kLadderForceLevel;
  // "Unknown" decides intra, not delta: before the first qualifying sample
  // every run makes the same conservative choice, so early decisions can
  // never straddle an estimator-convergence boundary differently across
  // core counts.
  bool wan_shaped =
      (bw_known && estimator_->BandwidthBps() <= kDeltaMaxBandwidthBps) ||
      (rtt_known && estimator_->Rtt() >= kDeltaMinRtt);
  if (!forced && !wan_shaped) {
    return CodecChoice::kIntra;
  }
  if (bw_known && estimator_->BandwidthBps() <= kSubsampleMaxBandwidthBps) {
    return CodecChoice::kDeltaSubsample;
  }
  return CodecChoice::kDelta;
}

}  // namespace thinc
