#include "src/core/command.h"

#include <gtest/gtest.h>

#include "src/util/prng.h"

namespace thinc {
namespace {

std::vector<Pixel> SolidPixels(int64_t n, Pixel p) {
  return std::vector<Pixel>(static_cast<size_t>(n), p);
}

std::vector<Pixel> NoisePixels(int64_t n, uint64_t seed) {
  Prng rng(seed);
  std::vector<Pixel> out(static_cast<size_t>(n));
  for (Pixel& p : out) {
    p = static_cast<Pixel>(rng.Next());
  }
  return out;
}

// Encode -> frame -> decode -> apply; compare against direct apply.
void ExpectWireEquivalence(const Command& cmd, int32_t w, int32_t h,
                           const Surface& base) {
  Surface direct = base;
  cmd.Apply(&direct);
  ByteBuffer frame = cmd.EncodeFrame();
  ASSERT_GE(frame.size(), kFrameHeaderBytes);
  std::unique_ptr<Command> decoded =
      DecodeCommand(frame[0], frame.view().subspan(kFrameHeaderBytes));
  ASSERT_NE(decoded, nullptr);
  Surface via_wire = base;
  decoded->Apply(&via_wire);
  int64_t diff = 0;
  EXPECT_TRUE(direct.Equals(via_wire, &diff)) << diff << " pixels differ";
}

// --- RAW ------------------------------------------------------------------------

TEST(RawCommandTest, WireEquivalence) {
  Rect r{5, 5, 20, 10};
  RawCommand cmd(r, NoisePixels(r.area(), 1));
  Surface base(40, 40, kBlack);
  ExpectWireEquivalence(cmd, 40, 40, base);
}

TEST(RawCommandTest, CompressedWireEquivalence) {
  Rect r{0, 0, 80, 60};  // above compression threshold, compressible content
  RawCommand cmd(r, SolidPixels(r.area(), MakePixel(7, 8, 9)));
  EXPECT_LT(cmd.EncodedSize(), static_cast<size_t>(r.area()) * 4 / 4);
  Surface base(100, 100, kBlack);
  ExpectWireEquivalence(cmd, 100, 100, base);
}

TEST(RawCommandTest, CompressionDisabledSendsRaw) {
  Rect r{0, 0, 80, 60};
  RawCommand cmd(r, SolidPixels(r.area(), kWhite));
  cmd.set_compression_enabled(false);
  EXPECT_GE(cmd.EncodedSize(), static_cast<size_t>(r.area()) * 4);
}

TEST(RawCommandTest, IncompressibleContentStaysRaw) {
  Rect r{0, 0, 64, 64};
  RawCommand cmd(r, NoisePixels(r.area(), 3));
  // Noise defeats the codec; encoded size ~= raw size (plus small headers).
  EXPECT_GE(cmd.EncodedSize(), static_cast<size_t>(r.area()) * 4);
  Surface base(64, 64, kBlack);
  ExpectWireEquivalence(cmd, 64, 64, base);
}

TEST(RawCommandTest, RestrictToClipsOutput) {
  Rect r{0, 0, 10, 10};
  RawCommand cmd(r, SolidPixels(100, kWhite));
  ASSERT_TRUE(cmd.RestrictTo(Region(Rect{0, 0, 5, 10})));
  Surface fb(10, 10, kBlack);
  cmd.Apply(&fb);
  EXPECT_EQ(fb.At(2, 2), kWhite);
  EXPECT_EQ(fb.At(7, 7), kBlack);
}

TEST(RawCommandTest, RestrictToNothingReturnsFalse) {
  RawCommand cmd(Rect{0, 0, 4, 4}, SolidPixels(16, kWhite));
  EXPECT_FALSE(cmd.RestrictTo(Region(Rect{100, 100, 5, 5})));
}

TEST(RawCommandTest, ClippedMultiRectWireEquivalence) {
  Rect r{0, 0, 30, 30};
  RawCommand cmd(r, NoisePixels(r.area(), 4));
  // Punch a hole: region becomes multiple rects.
  ASSERT_TRUE(cmd.RestrictTo(cmd.region().Subtract(Rect{10, 10, 10, 10})));
  EXPECT_GT(cmd.region().rect_count(), 1u);
  Surface base(30, 30, MakePixel(9, 9, 9));
  ExpectWireEquivalence(cmd, 30, 30, base);
}

TEST(RawCommandTest, TranslateMovesOutput) {
  RawCommand cmd(Rect{0, 0, 4, 4}, SolidPixels(16, kWhite));
  cmd.Translate(10, 20);
  EXPECT_EQ(cmd.region().Bounds(), (Rect{10, 20, 4, 4}));
  Surface fb(30, 30, kBlack);
  cmd.Apply(&fb);
  EXPECT_EQ(fb.At(11, 21), kWhite);
  EXPECT_EQ(fb.At(1, 1), kBlack);
}

TEST(RawCommandTest, AppendRowsMergesScanlines) {
  RawCommand cmd(Rect{5, 0, 10, 2}, SolidPixels(20, kWhite));
  EXPECT_TRUE(cmd.TryAppendRows(Rect{5, 2, 10, 3},
                                SolidPixels(30, MakePixel(1, 1, 1))));
  EXPECT_EQ(cmd.rect(), (Rect{5, 0, 10, 5}));
  Surface fb(20, 10, kBlack);
  cmd.Apply(&fb);
  EXPECT_EQ(fb.At(6, 1), kWhite);
  EXPECT_EQ(fb.At(6, 4), MakePixel(1, 1, 1));
}

TEST(RawCommandTest, AppendRowsRejectsMisalignment) {
  RawCommand cmd(Rect{5, 0, 10, 2}, SolidPixels(20, kWhite));
  EXPECT_FALSE(cmd.TryAppendRows(Rect{6, 2, 10, 1}, SolidPixels(10, kWhite)));
  EXPECT_FALSE(cmd.TryAppendRows(Rect{5, 3, 10, 1}, SolidPixels(10, kWhite)));
  EXPECT_FALSE(cmd.TryAppendRows(Rect{5, 2, 9, 1}, SolidPixels(9, kWhite)));
}

TEST(RawCommandTest, AppendRowsRejectedAfterClip) {
  RawCommand cmd(Rect{0, 0, 10, 4}, SolidPixels(40, kWhite));
  ASSERT_TRUE(cmd.RestrictTo(Region(Rect{0, 0, 5, 4})));
  EXPECT_FALSE(cmd.TryAppendRows(Rect{0, 4, 10, 1}, SolidPixels(10, kWhite)));
}

TEST(RawCommandTest, SplitOffProducesBoundedHead) {
  Rect r{0, 0, 100, 100};
  RawCommand cmd(r, NoisePixels(r.area(), 5));
  size_t full = cmd.EncodedSize();
  std::unique_ptr<Command> head = cmd.SplitOff(20'000);
  ASSERT_NE(head, nullptr);
  EXPECT_LE(head->EncodedSize(), 20'000u);
  // Remaining size shrank (SRSF reschedules by remaining size).
  EXPECT_LT(cmd.EncodedSize(), full);
  // The two pieces tile the original region exactly.
  EXPECT_TRUE(head->region().Intersect(cmd.region()).empty());
  EXPECT_EQ(head->region().Union(cmd.region()), Region(r));
}

TEST(RawCommandTest, SplitPiecesReproduceWhole) {
  Rect r{0, 0, 64, 64};
  std::vector<Pixel> pixels = NoisePixels(r.area(), 6);
  RawCommand original(r, pixels);
  Surface expect(64, 64, kBlack);
  original.Apply(&expect);

  RawCommand cmd(r, pixels);
  Surface got(64, 64, kBlack);
  // Repeatedly split off ~8 KB heads and apply them out of order.
  std::vector<std::unique_ptr<Command>> pieces;
  while (true) {
    std::unique_ptr<Command> head = cmd.SplitOff(8192);
    if (head == nullptr) {
      break;
    }
    pieces.push_back(std::move(head));
  }
  pieces.push_back(cmd.Clone());
  for (auto it = pieces.rbegin(); it != pieces.rend(); ++it) {
    (*it)->Apply(&got);
  }
  EXPECT_TRUE(expect.Equals(got));
}

TEST(RawCommandTest, SplitRefusesTinyBudget) {
  RawCommand cmd(Rect{0, 0, 100, 100}, NoisePixels(10000, 7));
  EXPECT_EQ(cmd.SplitOff(100), nullptr);
}

TEST(RawCommandTest, OverlapClassIsPartial) {
  RawCommand cmd(Rect{0, 0, 4, 4}, SolidPixels(16, kWhite));
  EXPECT_EQ(cmd.overlap(), OverlapClass::kPartial);
}

// --- COPY -----------------------------------------------------------------------

TEST(CopyCommandTest, WireEquivalence) {
  Surface base(40, 40, kBlack);
  base.FillRect(Rect{0, 0, 10, 10}, kWhite);
  CopyCommand cmd(Region(Rect{20, 20, 10, 10}), Point{-20, -20});
  ExpectWireEquivalence(cmd, 40, 40, base);
}

TEST(CopyCommandTest, ApplyCopiesWithinFramebuffer) {
  Surface fb(20, 20, kBlack);
  fb.FillRect(Rect{0, 0, 5, 5}, kWhite);
  CopyCommand cmd(Region(Rect{10, 10, 5, 5}), Point{-10, -10});
  cmd.Apply(&fb);
  EXPECT_EQ(fb.At(12, 12), kWhite);
}

TEST(CopyCommandTest, SourceRegionTracksDelta) {
  CopyCommand cmd(Region(Rect{10, 10, 5, 5}), Point{-10, -10});
  EXPECT_EQ(cmd.SourceRegion().Bounds(), (Rect{0, 0, 5, 5}));
}

TEST(CopyCommandTest, RestrictKeepsMapping) {
  Surface fb(20, 20, kBlack);
  fb.FillRect(Rect{0, 0, 10, 1}, kWhite);  // top row white
  CopyCommand cmd(Region(Rect{0, 10, 10, 2}), Point{0, -10});
  ASSERT_TRUE(cmd.RestrictTo(Region(Rect{5, 10, 5, 1})));
  cmd.Apply(&fb);
  EXPECT_EQ(fb.At(7, 10), kWhite);   // clipped copy still reads row 0
  EXPECT_EQ(fb.At(2, 10), kBlack);   // outside the restriction untouched
}

TEST(CopyCommandTest, IsTransparentClass) {
  CopyCommand cmd(Region(Rect{0, 0, 5, 5}), Point{5, 5});
  EXPECT_EQ(cmd.overlap(), OverlapClass::kTransparent);
}

TEST(CopyCommandTest, SmallEncodedSize) {
  CopyCommand cmd(Region(Rect{0, 0, 500, 500}), Point{10, 10});
  EXPECT_LT(cmd.EncodedSize(), 64u);  // coordinates only, no pixels
}

// --- SFILL ----------------------------------------------------------------------

TEST(SfillCommandTest, WireEquivalence) {
  Region region = Region(Rect{0, 0, 10, 10}).Union(Rect{15, 15, 8, 8});
  SfillCommand cmd(region, MakePixel(12, 34, 56));
  Surface base(30, 30, kBlack);
  ExpectWireEquivalence(cmd, 30, 30, base);
}

TEST(SfillCommandTest, CompleteClassAndSmall) {
  SfillCommand cmd(Region(Rect{0, 0, 1000, 1000}), kWhite);
  EXPECT_EQ(cmd.overlap(), OverlapClass::kComplete);
  EXPECT_LT(cmd.EncodedSize(), 64u);
}

TEST(SfillCommandTest, TranslateAndRestrict) {
  SfillCommand cmd(Region(Rect{0, 0, 10, 10}), kWhite);
  cmd.Translate(5, 5);
  EXPECT_EQ(cmd.region().Bounds(), (Rect{5, 5, 10, 10}));
  EXPECT_TRUE(cmd.RestrictTo(Region(Rect{5, 5, 3, 3})));
  EXPECT_EQ(cmd.region().Area(), 9);
}

// --- PFILL ----------------------------------------------------------------------

TEST(PfillCommandTest, WireEquivalence) {
  Surface tile(4, 4, kBlack);
  tile.FillRect(Rect{0, 0, 2, 2}, kWhite);
  PfillCommand cmd(Region(Rect{3, 3, 17, 11}), tile, Point{3, 3});
  Surface base(30, 30, MakePixel(5, 5, 5));
  ExpectWireEquivalence(cmd, 30, 30, base);
}

TEST(PfillCommandTest, TranslateMovesOriginWithRegion) {
  Surface tile(2, 2, kWhite);
  tile.Put(0, 0, kBlack);
  PfillCommand cmd(Region(Rect{0, 0, 8, 8}), tile, Point{0, 0});
  Surface a(20, 20, MakePixel(3, 3, 3));
  cmd.Apply(&a);
  cmd.Translate(6, 6);
  Surface b(20, 20, MakePixel(3, 3, 3));
  cmd.Apply(&b);
  // The pattern phase is preserved relative to the moved region.
  EXPECT_EQ(a.At(0, 0), b.At(6, 6));
  EXPECT_EQ(a.At(1, 1), b.At(7, 7));
}

// --- BITMAP ----------------------------------------------------------------------

TEST(BitmapCommandTest, OpaqueWireEquivalence) {
  Bitmap mask(9, 5);
  for (int32_t x = 0; x < 9; x += 2) {
    mask.Set(x, 2, true);
  }
  BitmapCommand cmd(Region(Rect{4, 4, 9, 5}), mask, Point{4, 4},
                    MakePixel(200, 0, 0), MakePixel(0, 0, 200),
                    /*transparent_bg=*/false);
  EXPECT_EQ(cmd.overlap(), OverlapClass::kComplete);
  Surface base(20, 20, kBlack);
  ExpectWireEquivalence(cmd, 20, 20, base);
}

TEST(BitmapCommandTest, TransparentWireEquivalence) {
  Bitmap mask(9, 5);
  mask.Set(1, 1, true);
  mask.Set(3, 3, true);
  BitmapCommand cmd(Region(Rect{4, 4, 9, 5}), mask, Point{4, 4}, kWhite, 0,
                    /*transparent_bg=*/true);
  EXPECT_EQ(cmd.overlap(), OverlapClass::kTransparent);
  Surface base(20, 20, MakePixel(30, 60, 90));
  ExpectWireEquivalence(cmd, 20, 20, base);
}

TEST(BitmapCommandTest, TransparentLeavesBackground) {
  Bitmap mask(4, 1);
  mask.Set(0, 0, true);
  BitmapCommand cmd(Region(Rect{0, 0, 4, 1}), mask, Point{0, 0}, kWhite, kBlack,
                    /*transparent_bg=*/true);
  Surface fb(4, 1, MakePixel(1, 2, 3));
  cmd.Apply(&fb);
  EXPECT_EQ(fb.At(0, 0), kWhite);
  EXPECT_EQ(fb.At(1, 0), MakePixel(1, 2, 3));
}

TEST(BitmapCommandTest, RestrictClipsInk) {
  Bitmap mask(10, 1);
  for (int32_t x = 0; x < 10; ++x) {
    mask.Set(x, 0, true);
  }
  BitmapCommand cmd(Region(Rect{0, 0, 10, 1}), mask, Point{0, 0}, kWhite, kBlack,
                    false);
  ASSERT_TRUE(cmd.RestrictTo(Region(Rect{0, 0, 5, 1})));
  Surface fb(10, 1, MakePixel(8, 8, 8));
  cmd.Apply(&fb);
  EXPECT_EQ(fb.At(4, 0), kWhite);
  EXPECT_EQ(fb.At(6, 0), MakePixel(8, 8, 8));
}

// --- Decode robustness -------------------------------------------------------------

TEST(DecodeCommandTest, RejectsUnknownType) {
  std::vector<uint8_t> payload = {0, 0, 0, 0};
  EXPECT_EQ(DecodeCommand(99, payload), nullptr);
}

TEST(DecodeCommandTest, RejectsTruncatedRaw) {
  RawCommand cmd(Rect{0, 0, 8, 8}, SolidPixels(64, kWhite));
  ByteBuffer frame = cmd.EncodeFrame();
  std::span<const uint8_t> payload = frame.view();
  payload = payload.subspan(kFrameHeaderBytes);
  payload = payload.subspan(0, payload.size() / 2);
  EXPECT_EQ(DecodeCommand(frame[0], payload), nullptr);
}

TEST(DecodeCommandTest, RejectsEmptyRegion) {
  WireWriter w;
  w.RegionVal(Region());
  w.U32(kWhite);
  EXPECT_EQ(DecodeCommand(static_cast<uint8_t>(MsgType::kSfill), w.data()), nullptr);
}

TEST(DecodeCommandTest, FuzzedPayloadsNeverCrash) {
  Prng rng(99);
  for (int i = 0; i < 200; ++i) {
    std::vector<uint8_t> garbage(rng.NextInRange(0, 128));
    for (uint8_t& b : garbage) {
      b = static_cast<uint8_t>(rng.Next());
    }
    for (uint8_t type = 1; type <= 5; ++type) {
      (void)DecodeCommand(type, garbage);
    }
  }
  SUCCEED();
}

// Clone independence across all command types.
TEST(CommandCloneTest, ClonesAreIndependent) {
  Surface tile(2, 2, kWhite);
  Bitmap mask(3, 3);
  mask.Set(1, 1, true);
  std::vector<std::unique_ptr<Command>> cmds;
  cmds.push_back(
      std::make_unique<RawCommand>(Rect{0, 0, 4, 4}, SolidPixels(16, kWhite)));
  cmds.push_back(std::make_unique<CopyCommand>(Region(Rect{4, 4, 2, 2}),
                                               Point{-4, -4}));
  cmds.push_back(std::make_unique<SfillCommand>(Region(Rect{0, 0, 3, 3}), kWhite));
  cmds.push_back(
      std::make_unique<PfillCommand>(Region(Rect{0, 0, 4, 4}), tile, Point{0, 0}));
  cmds.push_back(std::make_unique<BitmapCommand>(Region(Rect{0, 0, 3, 3}), mask,
                                                 Point{0, 0}, kWhite, kBlack, false));
  for (const auto& cmd : cmds) {
    std::unique_ptr<Command> clone = cmd->Clone();
    clone->Translate(100, 100);
    EXPECT_NE(clone->region().Bounds(), cmd->region().Bounds());
    EXPECT_EQ(clone->type(), cmd->type());
    EXPECT_EQ(clone->overlap(), cmd->overlap());
  }
}

// --- Encode-cache invalidation -----------------------------------------------
//
// RawCommand caches its encoded wire frame (and shares it through the
// payload-attached cache). Every mutator must invalidate that cache: after
// encode -> mutate -> re-encode, the bytes must be identical to those of a
// freshly constructed command with the post-mutation state.

std::vector<uint8_t> Bytes(const ByteBuffer& b) {
  return std::vector<uint8_t>(b.begin(), b.end());
}

TEST(RawCommandCacheTest, TranslateInvalidatesEncodedFrame) {
  Rect r{5, 5, 20, 10};
  std::vector<Pixel> px = NoisePixels(r.area(), 21);
  RawCommand cmd(r, px);
  std::vector<uint8_t> before = Bytes(cmd.EncodeFrame());
  cmd.Translate(7, 3);
  std::vector<uint8_t> after = Bytes(cmd.EncodeFrame());
  EXPECT_NE(before, after);
  RawCommand fresh(Rect{12, 8, 20, 10}, px);
  EXPECT_EQ(after, Bytes(fresh.EncodeFrame()));
}

TEST(RawCommandCacheTest, RestrictToInvalidatesEncodedFrame) {
  Rect r{0, 0, 16, 16};
  std::vector<Pixel> px = NoisePixels(r.area(), 22);
  RawCommand cmd(r, px);
  std::vector<uint8_t> before = Bytes(cmd.EncodeFrame());
  ASSERT_TRUE(cmd.RestrictTo(Region(Rect{0, 0, 8, 16})));
  std::vector<uint8_t> after = Bytes(cmd.EncodeFrame());
  EXPECT_NE(before, after);
  RawCommand fresh(r, px);
  ASSERT_TRUE(fresh.RestrictTo(Region(Rect{0, 0, 8, 16})));
  EXPECT_EQ(after, Bytes(fresh.EncodeFrame()));
}

TEST(RawCommandCacheTest, AppendRowsInvalidatesEncodedFrame) {
  Rect top{5, 2, 10, 2};
  std::vector<Pixel> top_px = NoisePixels(top.area(), 23);
  std::vector<Pixel> bottom_px = NoisePixels(10 * 3, 24);
  RawCommand cmd(top, top_px);
  std::vector<uint8_t> before = Bytes(cmd.EncodeFrame());
  ASSERT_TRUE(cmd.TryAppendRows(Rect{5, 4, 10, 3}, bottom_px));
  std::vector<uint8_t> after = Bytes(cmd.EncodeFrame());
  EXPECT_NE(before, after);
  std::vector<Pixel> merged = top_px;
  merged.insert(merged.end(), bottom_px.begin(), bottom_px.end());
  RawCommand fresh(Rect{5, 2, 10, 5}, merged);
  EXPECT_EQ(after, Bytes(fresh.EncodeFrame()));
}

TEST(RawCommandCacheTest, SplitOffInvalidatesRemainderFrame) {
  Rect r{0, 0, 64, 64};
  std::vector<Pixel> px = NoisePixels(r.area(), 25);
  RawCommand cmd(r, px);
  cmd.set_compression_enabled(false);
  std::vector<uint8_t> before = Bytes(cmd.EncodeFrame());
  std::unique_ptr<Command> head = cmd.SplitOff(8192);
  ASSERT_NE(head, nullptr);
  std::vector<uint8_t> after = Bytes(cmd.EncodeFrame());
  EXPECT_NE(before, after);
  // The remainder re-encodes to the same bytes as a fresh command with the
  // same region restriction of the same payload.
  RawCommand fresh(r, px);
  fresh.set_compression_enabled(false);
  ASSERT_TRUE(fresh.RestrictTo(cmd.region()));
  EXPECT_EQ(after, Bytes(fresh.EncodeFrame()));
}

TEST(RawCommandCacheTest, CompressionToggleInvalidatesEncodedFrame) {
  Rect r{0, 0, 80, 60};  // above threshold, compressible
  RawCommand cmd(r, SolidPixels(r.area(), kWhite));
  std::vector<uint8_t> compressed = Bytes(cmd.EncodeFrame());
  cmd.set_compression_enabled(false);
  std::vector<uint8_t> raw = Bytes(cmd.EncodeFrame());
  EXPECT_NE(compressed, raw);
  EXPECT_GT(raw.size(), compressed.size());
}

TEST(RawCommandCacheTest, CloneMutationDoesNotDisturbOriginal) {
  Rect r{0, 0, 12, 12};
  std::vector<Pixel> px = NoisePixels(r.area(), 26);
  RawCommand cmd(r, px);
  std::vector<uint8_t> before = Bytes(cmd.EncodeFrame());
  std::unique_ptr<Command> clone = cmd.Clone();
  clone->Translate(30, 0);
  ASSERT_TRUE(clone->RestrictTo(Region(Rect{30, 0, 6, 12})));
  // The original's cached frame (and payload) are untouched by the clone's
  // mutations, even though both started out sharing one payload.
  EXPECT_EQ(before, Bytes(cmd.EncodeFrame()));
  RawCommand fresh(r, px);
  EXPECT_EQ(before, Bytes(fresh.EncodeFrame()));
}

TEST(RawCommandCacheTest, SharedPayloadEncodesOnceForIdenticalGeometry) {
  Rect r{0, 0, 32, 32};
  RawCommand cmd(r, NoisePixels(r.area(), 27));
  std::vector<uint8_t> original = Bytes(cmd.EncodeFrame());
  int64_t encodes_before = BufferStats::Get().raw_encodes;
  std::unique_ptr<Command> clone = cmd.Clone();
  // Identical geometry: the clone's encode is served from the payload cache
  // with identical bytes — no second physical encode.
  EXPECT_EQ(original, Bytes(clone->EncodeFrame()));
  EXPECT_EQ(BufferStats::Get().raw_encodes, encodes_before);
}

}  // namespace
}  // namespace thinc
