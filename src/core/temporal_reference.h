// The adapt layer's temporal reference (DESIGN.md §15): a conservative
// server-side model of the framebuffer one client has provably applied,
// against which RAW updates may be re-encoded as deltas. `surface()` replays
// the committed commands; `dirty()` is where that replay cannot be trusted
// and deltas are forbidden. The staleness rules:
//   * a COPY whose source overlaps the dirty region, or a transparent BITMAP
//     blending over dirty pixels, reads stale pixels — its destination
//     becomes dirty; every other command overwrites, which scrubs;
//   * an unarmed reference may arm lazily against the client's initial
//     black framebuffer, but only for a session that has never reattached
//     (ForfeitLazyArm) and whose display is not viewport-scaled.
// Lives in src/core rather than src/adapt because it applies Commands.
#ifndef THINC_SRC_CORE_TEMPORAL_REFERENCE_H_
#define THINC_SRC_CORE_TEMPORAL_REFERENCE_H_

#include <vector>

#include "src/core/command.h"

namespace thinc {

class TemporalReference {
 public:
  bool armed() const { return armed_; }
  const Surface& surface() const { return surface_; }
  const Region& dirty() const { return dirty_; }

  // `base` becomes the delivered-content snapshot, untrusted in `dirty`.
  void Arm(Surface base, Region dirty);
  // Drops the reference: every update goes intra until the next Arm().
  // Counted in codec.reference_invalidations when it was armed.
  void Invalidate();
  // Stays armed but trusts nothing, so deltas return region by region as
  // overwrites land. Counted like Invalidate(); no-op while unarmed.
  void MarkAllStale();
  // Marks `rect` stale (a vacated video overlay); no-op while unarmed.
  void MarkStale(const Rect& rect);
  // The client may now hold more than its initial black framebuffer.
  void ForfeitLazyArm() { lazy_arm_ok_ = false; }

  // Folds a command whose frame was fully committed to the in-order
  // transport. While unarmed, first arms lazily against a black `screen`
  // when the rules above allow it.
  void Apply(const Command& cmd, const Rect& screen, bool scaled);

  // Armed, covering all of `rect`, and none of it stale.
  bool IsClean(const Rect& rect) const;
  std::vector<Pixel> Slice(const Rect& rect) const { return surface_.GetPixels(rect); }

 private:
  Surface surface_;
  Region dirty_;
  bool armed_ = false;
  bool lazy_arm_ok_ = true;
};

}  // namespace thinc

#endif  // THINC_SRC_CORE_TEMPORAL_REFERENCE_H_
