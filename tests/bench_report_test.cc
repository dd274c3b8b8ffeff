// bench::Report, the writer behind every BENCH_*.json file: ordered
// nesting, per-field double precision, string escaping, and the split of
// wall-clock fields into the `host` block at their `results` path.
#include "bench/bench_report.h"

#include <gtest/gtest.h>

namespace thinc {
namespace bench {
namespace {

TEST(BenchReportTest, ScalarsPrintAsTokens) {
  Report r;
  r.Set("int", -7)
      .Set("big", int64_t{1} << 40)
      .Set("unsigned", uint64_t{18446744073709551615u})
      .Set("yes", true)
      .Set("no", false)
      .Set("name", "desktop");
  EXPECT_EQ(r.Results(),
            "{\"int\": -7, \"big\": 1099511627776, \"unsigned\": "
            "18446744073709551615, \"yes\": true, \"no\": false, \"name\": "
            "\"desktop\"}");
}

TEST(BenchReportTest, DoublePrecisionIsPerField) {
  Report r;
  r.Set("p3", Json::Fixed(12.34567, 3))
      .Set("p4", Json::Fixed(0.5, 4))
      .Set("p0", Json::Fixed(1234.4, 0))
      .Set("neg", Json::Fixed(-2.71828, 2))
      .Set("neg_zero", Json::Fixed(-0.0004, 3))
      .Set("round_up", Json::Fixed(1.9996, 3))
      .Set("carry", Json::Fixed(99.95001, 1))
      .Set("neg_round_up", Json::Fixed(-0.99996, 4));
  EXPECT_EQ(r.Results(),
            "{\"p3\": 12.346, \"p4\": 0.5000, \"p0\": 1234, \"neg\": -2.72, "
            "\"neg_zero\": -0.000, \"round_up\": 2.000, \"carry\": 100.0, "
            "\"neg_round_up\": -1.0000}");
}

TEST(BenchReportTest, StringsEscapeQuoteAndBackslash) {
  Report r;
  r.Set("s", "a\"b\\c").Set("ctl", "x\ny");
  EXPECT_EQ(r.Results(), "{\"s\": \"a\\\"b\\\\c\", \"ctl\": \"x\\u000ay\"}");
}

TEST(BenchReportTest, KeyOrderIsInsertionOrder) {
  Report r;
  r.Set("zeta", 1).Set("alpha", 2).Set("mid", 3);
  EXPECT_EQ(r.Results(), "{\"zeta\": 1, \"alpha\": 2, \"mid\": 3}");
}

TEST(BenchReportTest, EmptyContainersStayInResults) {
  Report empty;
  EXPECT_EQ(empty.Text(), "{\n  \"results\": {},\n  \"host\": {}\n}\n");
  Report r;
  r.Set("sweep", Json::Array()).Set("config", Json::Object());
  EXPECT_EQ(r.Results(), "{\"sweep\": [], \"config\": {}}");
  EXPECT_EQ(r.Text(),
            "{\n  \"results\": {\"sweep\": [], \"config\": {}},\n"
            "  \"host\": {}\n}\n");
}

TEST(BenchReportTest, NestsObjectsInArraysAndArraysInObjects) {
  Report r;
  r.Set("config", Json::Object({{"screen", Json::Array().Push(512).Push(384)}}));
  r.Set("sweep", Json::Array()
                     .Push(Json::Object().Set("n", 1).Set(
                         "sizes", Json::Array().Push(2)))
                     .Push(Json::Object()));
  EXPECT_EQ(r.Results(),
            "{\n"
            "    \"config\": {\"screen\": [512, 384]},\n"
            "    \"sweep\": [\n"
            "      {\"n\": 1, \"sizes\": [2]},\n"
            "      {}\n"
            "    ]\n"
            "  }");
}

TEST(BenchReportTest, ArrayOfMapsEveryItem) {
  Report r;
  const std::vector<int> sizes = {1, 4, 16};
  r.Set("n", Json::ArrayOf(sizes, [](int n) { return n * 2; }));
  EXPECT_EQ(r.Results(), "{\"n\": [2, 8, 32]}");
}

TEST(BenchReportTest, HostFieldsSplitAtTheSamePath) {
  Report r;
  r.Set("queue",
        Json::Object().Set(
            "sweep",
            Json::Array()
                .Push(Json::Object()
                          .Set("pending", 256)
                          .Set("events_per_sec", Json::HostFixed(1234.56, 0)))
                .Push(Json::Object().Set("pending", 1024))
                .Push(Json::Object()
                          .Set("pending", 4096)
                          .Set("speedup", Json::HostFixed(2.346, 2)))));
  r.Set("total", 3);
  EXPECT_EQ(r.Text(),
            "{\n"
            "  \"results\": {\n"
            "    \"queue\": {\n"
            "      \"sweep\": [\n"
            "        {\"pending\": 256},\n"
            "        {\"pending\": 1024},\n"
            "        {\"pending\": 4096}\n"
            "      ]\n"
            "    },\n"
            "    \"total\": 3\n"
            "  },\n"
            "  \"host\": {\n"
            "    \"queue\": {\n"
            "      \"sweep\": [\n"
            "        {\"events_per_sec\": 1235},\n"
            "        null,\n"
            "        {\"speedup\": 2.35}\n"
            "      ]\n"
            "    }\n"
            "  }\n"
            "}\n");
}

TEST(BenchReportTest, ResultsIgnoreHostValues) {
  // Two reruns that differ only in wall-clock fields have equal results.
  auto run = [](double wall_ms) {
    Report r;
    r.Set("fired", 100).Set("wall_ms", Json::HostFixed(wall_ms, 1));
    return r;
  };
  EXPECT_EQ(run(12.5).Results(), run(99.0).Results());
  EXPECT_NE(run(12.5).Text(), run(99.0).Text());
}

}  // namespace
}  // namespace bench
}  // namespace thinc
