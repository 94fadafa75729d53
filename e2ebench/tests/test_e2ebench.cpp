// The benchmark's own tests: span self-time arithmetic and input
// determinism. Run through ../test_e2ebench.py.
#include <gtest/gtest.h>

#include "inputs.h"
#include "spans.h"
#include "stats.h"

namespace e2ebench {
namespace {

Span span(const char* name, std::int64_t start, std::int64_t end, std::int32_t parent) {
  return Span{name, 0, start, end, parent};
}

TEST(SelfTime, HandBuiltTree) {
  // root [0,100) has children a [10,30) and b [20,50) (overlapping: their
  // union covers 40) and c [90,120) (clipped to the root: covers 10).
  // a has one child d [12,18).
  const std::vector<Span> spans = {
      span("root", 0, 100, -1),  // 0
      span("a", 10, 30, 0),      // 1
      span("b", 20, 50, 0),      // 2
      span("c", 90, 120, 0),     // 3
      span("d", 12, 18, 1),      // 4
      span("lone", 200, 260, -1),  // 5
  };
  const auto self = self_times_ns(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
  EXPECT_EQ(self[5], 60);

  const auto by_name = self_time_by_name(spans);
  EXPECT_DOUBLE_EQ(by_name.at("root"), 50e-9);
  const auto b = durations_s(spans, "b");
  ASSERT_EQ(b.size(), 1u);
  EXPECT_DOUBLE_EQ(b[0], 30e-9);
}

TEST(SelfTime, RecorderNestsScopesAndIsANoOpWhenOff) {
  SpanRecorder recorder;
  {
    const SpanRecorder::Scope off(recorder, "off", 1);
  }
  EXPECT_TRUE(recorder.spans().empty());

  recorder.set_enabled(true);
  {
    const SpanRecorder::Scope outer(recorder, "outer", 7);
    const SpanRecorder::Scope inner(recorder, "inner", 8);
  }
  {
    const SpanRecorder::Scope next(recorder, "next", 9);
  }
  const auto& spans = recorder.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].id, 8u);
  EXPECT_EQ(spans[2].parent, -1);
  for (const auto& s : spans) EXPECT_GE(s.end_ns, s.start_ns);
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], spans[0].duration_ns() - spans[1].duration_ns());
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile({}, 50), 0.0);
  EXPECT_EQ(percentile({3, 1, 2}, 50), 2.0);
  EXPECT_EQ(percentile({1, 2, 3, 4}, 50), 2.0);
  EXPECT_EQ(percentile({1, 2, 3, 4}, 99), 4.0);
  EXPECT_EQ(percentile({5}, 0), 5.0);
}

TEST(Percentile, WindowedIsTheMedianOfPerWindowPercentiles) {
  // Windows {1,2,3,4} {5,6,7,8} {100,200,300,400} {9}: p50 per full
  // window is 2, 6, 200; the trailing partial window is ignored.
  const std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 100, 200, 300, 400, 9};
  EXPECT_EQ(windowed_percentile(v, 4, 50), 6.0);
  EXPECT_EQ(windowed_percentile(v, 8, 50), percentile(v, 50));
}

TEST(Inputs, SameSeedSameDigest) {
  const auto corpus = [](std::uint64_t seed) {
    return digest(make_corpus_inputs({2'000, 1'000, 10}, seed));
  };
  const auto traffic = [](std::uint64_t seed) {
    return digest(make_traffic_inputs({3'200, 64}, seed));
  };
  const auto analysis = [](std::uint64_t seed) {
    return digest(make_analysis_inputs({1, {4, 5}}, seed));
  };
  EXPECT_EQ(corpus(11), corpus(11));
  EXPECT_EQ(traffic(11), traffic(11));
  EXPECT_EQ(analysis(11), analysis(11));
  EXPECT_NE(corpus(11), corpus(12));
  EXPECT_NE(traffic(11), traffic(12));
  EXPECT_NE(analysis(11), analysis(12));
}

TEST(Inputs, IngestIdsDoNotCollideWithTheCorpus) {
  const auto in = make_corpus_inputs({2'000, 1'000, 10}, 3);
  auto db = in.corpus;
  for (const auto& batch : in.batches) db.add_batch(batch);
  EXPECT_EQ(db.size(), 3'000u);
}

}  // namespace
}  // namespace e2ebench
