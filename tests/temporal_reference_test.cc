#include "src/core/temporal_reference.h"

#include <gtest/gtest.h>

#include "src/telemetry/metrics.h"

namespace thinc {
namespace {

constexpr Rect kScreen{0, 0, 64, 48};
const Pixel kRed = MakePixel(200, 20, 20);

int64_t Invalidations() {
  return MetricsRegistry::Get().GetCounter("codec.reference_invalidations")->value();
}

// A reference armed against a grey screen with `dirty` untrusted.
TemporalReference ArmedReference(const Region& dirty) {
  TemporalReference ref;
  ref.Arm(Surface(kScreen.width, kScreen.height, MakePixel(90, 90, 90)), dirty);
  return ref;
}

BitmapCommand Glyph(const Rect& rect, bool transparent_bg) {
  Bitmap mask(rect.width, rect.height);
  mask.Set(0, 0, true);
  return BitmapCommand(Region(rect), mask, Point{rect.x, rect.y}, kWhite, kBlack,
                       transparent_bg);
}

TEST(TemporalReferenceTest, CopyFromDirtySourceDirtiesDestination) {
  TemporalReference ref = ArmedReference(Region(Rect{0, 0, 8, 8}));
  // Destination (20,20)+8x8 reads source (4,4)+8x8, which overlaps the
  // dirty corner.
  ref.Apply(CopyCommand(Region(Rect{20, 20, 8, 8}), Point{-16, -16}), kScreen, false);
  EXPECT_TRUE(ref.dirty().ContainsRect(Rect{20, 20, 8, 8}));
  EXPECT_FALSE(ref.IsClean(Rect{20, 20, 8, 8}));
}

TEST(TemporalReferenceTest, CopyFromCleanSourceScrubsDestination) {
  TemporalReference ref = ArmedReference(Region(Rect{20, 20, 8, 8}));
  ref.Apply(CopyCommand(Region(Rect{20, 20, 8, 8}), Point{-20, -20}), kScreen, false);
  EXPECT_TRUE(ref.dirty().empty());
  EXPECT_TRUE(ref.IsClean(Rect{20, 20, 8, 8}));
}

TEST(TemporalReferenceTest, OpaqueOverwriteScrubs) {
  TemporalReference ref = ArmedReference(Region(Rect{0, 0, 32, 32}));
  ref.Apply(SfillCommand(Region(Rect{0, 0, 16, 32}), kRed), kScreen, false);
  EXPECT_TRUE(ref.IsClean(Rect{0, 0, 16, 32}));
  EXPECT_EQ(ref.dirty(), Region(Rect{16, 0, 16, 32}));
  EXPECT_EQ(ref.surface().At(5, 5), kRed);
  ref.Apply(Glyph(Rect{16, 0, 16, 32}, /*transparent_bg=*/false), kScreen, false);
  EXPECT_TRUE(ref.dirty().empty());
}

TEST(TemporalReferenceTest, TransparentBitmapOverDirtyPixelsStaysDirty) {
  TemporalReference ref = ArmedReference(Region(Rect{0, 0, 8, 8}));
  ref.Apply(Glyph(Rect{4, 4, 8, 8}, /*transparent_bg=*/true), kScreen, false);
  // The blend read the stale corner, so the whole glyph rect is now stale.
  EXPECT_TRUE(ref.dirty().ContainsRect(Rect{4, 4, 8, 8}));
  // Over clean pixels the same blend scrubs nothing and dirties nothing.
  ref.Apply(Glyph(Rect{30, 30, 8, 8}, /*transparent_bg=*/true), kScreen, false);
  EXPECT_TRUE(ref.IsClean(Rect{30, 30, 8, 8}));
}

TEST(TemporalReferenceTest, LazyArmAgainstBlackOnFirstCommit) {
  TemporalReference ref;
  ref.Apply(SfillCommand(Region(Rect{0, 0, 4, 4}), kRed), kScreen, false);
  ASSERT_TRUE(ref.armed());
  EXPECT_EQ(ref.surface().bounds(), kScreen);
  EXPECT_EQ(ref.surface().At(0, 0), kRed);
  EXPECT_EQ(ref.surface().At(10, 10), kBlack);
  EXPECT_TRUE(ref.IsClean(kScreen));
}

TEST(TemporalReferenceTest, LazyArmRefusedOnceForfeited) {
  TemporalReference ref;
  ref.ForfeitLazyArm();
  ref.Apply(SfillCommand(Region(Rect{0, 0, 4, 4}), kRed), kScreen, false);
  EXPECT_FALSE(ref.armed());
  // An explicit arm still works, and a later invalidation stays unarmed.
  ref.Arm(Surface(kScreen.width, kScreen.height), Region());
  ref.Invalidate();
  ref.Apply(SfillCommand(Region(Rect{0, 0, 4, 4}), kRed), kScreen, false);
  EXPECT_FALSE(ref.armed());
}

TEST(TemporalReferenceTest, LazyArmRefusedUnderViewport) {
  TemporalReference ref;
  ref.Apply(SfillCommand(Region(Rect{0, 0, 4, 4}), kRed), kScreen, /*scaled=*/true);
  EXPECT_FALSE(ref.armed());
}

TEST(TemporalReferenceTest, InvalidationCountsOnlyWhenArmed) {
  TemporalReference ref;
  const int64_t before = Invalidations();
  ref.Invalidate();
  ref.MarkAllStale();
  EXPECT_EQ(Invalidations(), before);
  ref.Arm(Surface(kScreen.width, kScreen.height), Region());
  ref.MarkAllStale();
  EXPECT_EQ(Invalidations(), before + 1);
  EXPECT_TRUE(ref.armed());
  EXPECT_EQ(ref.dirty(), Region(kScreen));
  ref.Invalidate();
  EXPECT_EQ(Invalidations(), before + 2);
  EXPECT_FALSE(ref.armed());
  ref.Invalidate();
  EXPECT_EQ(Invalidations(), before + 2);
}

TEST(TemporalReferenceTest, IsCleanNeedsArmedInBoundsAndNoStaleness) {
  TemporalReference ref;
  EXPECT_FALSE(ref.IsClean(Rect{0, 0, 4, 4}));
  ref = ArmedReference(Region());
  EXPECT_TRUE(ref.IsClean(Rect{0, 0, 4, 4}));
  EXPECT_FALSE(ref.IsClean(Rect{60, 40, 8, 8}));  // crosses the edge
  ref.MarkStale(Rect{2, 2, 1, 1});
  EXPECT_FALSE(ref.IsClean(Rect{0, 0, 4, 4}));
  EXPECT_TRUE(ref.IsClean(Rect{4, 4, 4, 4}));
  EXPECT_EQ(ref.Slice(Rect{4, 4, 2, 1}),
            (std::vector<Pixel>{MakePixel(90, 90, 90), MakePixel(90, 90, 90)}));
}

}  // namespace
}  // namespace thinc
