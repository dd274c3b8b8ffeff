// Per-connection codec policy: intra vs temporal delta vs delta with
// fidelity subsampling, decided per update from the NetEstimator's
// bandwidth/RTT picture and the host's degradation-ladder level.
//
// The decision half of the adaptive codec layer (the QoS-control shape of
// the VDI streaming literature): LAN-class paths keep the cheap-to-encode
// intra codecs, WAN-shaped paths (low bandwidth or high RTT) switch to
// temporal deltas, and starved paths additionally trade fidelity for bytes.
// The selector is pure policy — it never touches reference validity, which
// the server owns (DESIGN.md §15).
#ifndef THINC_SRC_ADAPT_CODEC_SELECTOR_H_
#define THINC_SRC_ADAPT_CODEC_SELECTOR_H_

#include <cstdint>

#include "src/adapt/net_estimator.h"

namespace thinc {

enum class CodecChoice {
  kIntra,           // spatial-only encode (RAW + PNG-like)
  kDelta,           // temporal delta against the delivered reference
  kDeltaSubsample,  // delta of a fidelity-subsampled payload
};

struct AdaptOptions {
  // Master switch: off keeps every server byte-identical to the
  // pre-adaptive stack (no observer installed, no reference kept).
  bool enabled = false;
};

class CodecSelector {
 public:
  // `estimator` may be null (no transport observed yet): every choice is
  // intra until one is attached.
  CodecSelector(const AdaptOptions& options, const NetEstimator* estimator)
      : options_(options), estimator_(estimator) {}

  void set_estimator(const NetEstimator* estimator) {
    estimator_ = estimator;
  }

  // Picks the codec for an update of `update_pixels` at the host's current
  // degradation-ladder level. Pure function of (options, estimate, level):
  // identical histories give identical choices at any core count K.
  CodecChoice Choose(int64_t update_pixels, int degradation_level) const;

 private:
  AdaptOptions options_;
  const NetEstimator* estimator_;
};

}  // namespace thinc

#endif  // THINC_SRC_ADAPT_CODEC_SELECTOR_H_
