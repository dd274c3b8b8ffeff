#include "src/core/temporal_reference.h"

#include <utility>

#include "src/telemetry/metrics.h"

namespace thinc {
namespace {

void CountInvalidation() {
  static Counter* invalidations =
      MetricsRegistry::Get().GetCounter("codec.reference_invalidations");
  invalidations->Inc();
}

}  // namespace

void TemporalReference::Arm(Surface base, Region dirty) {
  surface_ = std::move(base);
  dirty_ = std::move(dirty);
  armed_ = true;
}

void TemporalReference::Invalidate() {
  if (armed_) {
    CountInvalidation();
  }
  armed_ = false;
  surface_ = Surface();
  dirty_ = Region();
}

void TemporalReference::MarkAllStale() {
  if (armed_) {
    CountInvalidation();
    dirty_ = Region(surface_.bounds());
  }
}

void TemporalReference::MarkStale(const Rect& rect) {
  if (armed_) {
    dirty_ = dirty_.Union(rect);
  }
}

void TemporalReference::Apply(const Command& cmd, const Rect& screen, bool scaled) {
  if (!armed_) {
    if (!lazy_arm_ok_ || scaled) {
      return;
    }
    Arm(Surface(screen.width, screen.height, kBlack), Region());
  }
  // COPY and transparent BITMAP read the client framebuffer. The server-side
  // DeltaCommand carries its reconstructed pixels, so it is an overwrite here
  // even though its wire form reads the framebuffer too.
  const bool reads_stale =
      (cmd.type() == MsgType::kCopy &&
       static_cast<const CopyCommand&>(cmd).SourceRegion().Intersects(dirty_)) ||
      (cmd.type() == MsgType::kBitmap && cmd.overlap() == OverlapClass::kTransparent &&
       cmd.region().Intersects(dirty_));
  cmd.Apply(&surface_);
  dirty_ = reads_stale ? dirty_.Union(cmd.region()) : dirty_.Subtract(cmd.region());
}

bool TemporalReference::IsClean(const Rect& rect) const {
  return armed_ && rect.Intersect(surface_.bounds()) == rect && !dirty_.Intersects(rect);
}

}  // namespace thinc
