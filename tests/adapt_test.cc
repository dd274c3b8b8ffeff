#include <gtest/gtest.h>

#include "src/adapt/codec_selector.h"
#include "src/adapt/net_estimator.h"

namespace thinc {
namespace {

// Feeds the estimator a back-to-back segment pair of `bytes` at `rate_bps`.
void FeedPair(NetEstimator* est, SimTime start, int64_t bytes, int64_t rate_bps) {
  SimTime tx = bytes * 8 * kSecond / rate_bps;
  est->OnDelivery(Transport::kServer, start, static_cast<size_t>(bytes));
  est->OnDelivery(Transport::kServer, start + tx, static_cast<size_t>(bytes));
}

TEST(AdaptEstimatorTest, UnknownUntilQualifyingPair) {
  NetEstimator est;
  EXPECT_FALSE(est.HasBandwidth());
  EXPECT_FALSE(est.HasRtt());
  EXPECT_EQ(est.BandwidthBps(), 0);
  EXPECT_EQ(est.Rtt(), -1);
  // A lone delivery, a small pair, and an unequal-size pair all fail to
  // qualify.
  est.OnDelivery(Transport::kServer, 100, 1500);
  EXPECT_FALSE(est.HasBandwidth());
  est.OnDelivery(Transport::kServer, 220, 900);
  est.OnDelivery(Transport::kServer, 300, 700);
  EXPECT_FALSE(est.HasBandwidth());
}

TEST(AdaptEstimatorTest, PacketPairRecoversLinkRate) {
  NetEstimator est;
  FeedPair(&est, 1000, 1500, 100'000'000);  // 100 Mbps -> 120 us gap
  ASSERT_TRUE(est.HasBandwidth());
  EXPECT_EQ(est.BandwidthBps(), 100'000'000);
}

TEST(AdaptEstimatorTest, RunningMinIgnoresIdleGaps) {
  NetEstimator est;
  FeedPair(&est, 1000, 1500, 1'000'000);  // converged at 1 Mbps
  ASSERT_TRUE(est.HasBandwidth());
  // A later pair separated by think-time idle (larger gap) must not lower
  // the estimate: the min already has the serialization time.
  est.OnDelivery(Transport::kServer, 10 * kSecond, 1500);
  est.OnDelivery(Transport::kServer, 11 * kSecond, 1500);
  EXPECT_EQ(est.BandwidthBps(), 1'000'000);
  // But a tighter gap (faster link) does refine it.
  FeedPair(&est, 20 * kSecond, 1500, 10'000'000);
  EXPECT_EQ(est.BandwidthBps(), 10'000'000);
}

TEST(AdaptEstimatorTest, ClientTrafficIgnored) {
  NetEstimator est;
  FeedPair(&est, 1000, 1500, 100'000'000);
  est.OnDelivery(Transport::kClient, 2000, 1500);
  est.OnDelivery(Transport::kClient, 2010, 1500);
  EXPECT_EQ(est.BandwidthBps(), 100'000'000);  // uplink pair did not count
  est.OnRttSample(Transport::kClient, 999);
  EXPECT_FALSE(est.HasRtt());
}

TEST(AdaptEstimatorTest, RttKeepsLatestSample) {
  NetEstimator est;
  est.OnRttSample(Transport::kServer, 66 * kMillisecond);
  ASSERT_TRUE(est.HasRtt());
  EXPECT_EQ(est.Rtt(), 66 * kMillisecond);
  est.OnRttSample(Transport::kServer, 5 * kMillisecond);
  EXPECT_EQ(est.Rtt(), 5 * kMillisecond);
}

TEST(AdaptEstimatorTest, LinkChangeResetsToUnknown) {
  NetEstimator est;
  FeedPair(&est, 1000, 1500, 100'000'000);
  est.OnRttSample(Transport::kServer, 10 * kMillisecond);
  est.OnLinkChange();
  EXPECT_FALSE(est.HasBandwidth());
  EXPECT_FALSE(est.HasRtt());
}

AdaptOptions EnabledOptions() {
  AdaptOptions o;
  o.enabled = true;
  return o;
}

TEST(AdaptSelectorTest, DisabledOrSmallUpdatesStayIntra) {
  NetEstimator est;
  est.OnRttSample(Transport::kServer, 100 * kMillisecond);
  CodecSelector off{AdaptOptions{}, &est};
  EXPECT_EQ(off.Choose(100'000, 0), CodecChoice::kIntra);
  CodecSelector on{EnabledOptions(), &est};
  EXPECT_EQ(on.Choose(1024, 0), CodecChoice::kIntra);  // below the delta floor
}

TEST(AdaptSelectorTest, UnknownEstimateStaysIntra) {
  NetEstimator est;
  CodecSelector sel{EnabledOptions(), &est};
  EXPECT_EQ(sel.Choose(100'000, 0), CodecChoice::kIntra);
  CodecSelector no_est{EnabledOptions(), nullptr};
  EXPECT_EQ(no_est.Choose(100'000, 0), CodecChoice::kIntra);
}

TEST(AdaptSelectorTest, HighRttPicksDelta) {
  NetEstimator est;
  est.OnRttSample(Transport::kServer, 66 * kMillisecond);
  CodecSelector sel{EnabledOptions(), &est};
  EXPECT_EQ(sel.Choose(100'000, 0), CodecChoice::kDelta);
}

TEST(AdaptSelectorTest, LanClassPathStaysIntra) {
  NetEstimator est;
  FeedPair(&est, 1000, 1500, 100'000'000);
  est.OnRttSample(Transport::kServer, 400);  // 0.4 ms
  CodecSelector sel{EnabledOptions(), &est};
  EXPECT_EQ(sel.Choose(100'000, 0), CodecChoice::kIntra);
}

TEST(AdaptSelectorTest, StarvedLinkSubsamples) {
  NetEstimator est;
  FeedPair(&est, 1000, 1500, 1'000'000);  // 1 Mbps
  CodecSelector sel{EnabledOptions(), &est};
  EXPECT_EQ(sel.Choose(100'000, 0), CodecChoice::kDeltaSubsample);
}

TEST(AdaptSelectorTest, LadderLevelForcesDelta) {
  NetEstimator est;  // no samples: estimate unknown
  CodecSelector sel{EnabledOptions(), &est};
  EXPECT_EQ(sel.Choose(100'000, 1), CodecChoice::kIntra);
  EXPECT_EQ(sel.Choose(100'000, 2), CodecChoice::kDelta);
  EXPECT_EQ(sel.Choose(100'000, 4), CodecChoice::kDelta);
}

}  // namespace
}  // namespace thinc
