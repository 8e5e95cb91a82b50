#include "e2e/percentile.h"

#include <gtest/gtest.h>

#include <vector>

namespace dcs::e2e {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  return values;
}

TEST(SummarizeTest, MedianInterpolatesEvenCounts) {
  const TailSummary summary = Summarize({4, 1, 3, 2}, 50);
  EXPECT_EQ(summary.samples, 4);
  EXPECT_DOUBLE_EQ(summary.median, 2.5);
}

TEST(SummarizeTest, TailWithExactlyTenBeyondIsReported) {
  // 1..1000: rank 0.99 * 999 = 989.01 interpolates to 990.01, and the ten
  // values 991..1000 lie above it.
  const TailSummary summary = Summarize(OneTo(1000), 99);
  EXPECT_DOUBLE_EQ(summary.median, 500.5);
  ASSERT_TRUE(summary.tail.has_value());
  EXPECT_NEAR(*summary.tail, 990.01, 1e-9);
  EXPECT_EQ(summary.beyond, 10);
  EXPECT_TRUE(summary.reason.empty());
}

TEST(SummarizeTest, TailWithNineBeyondIsRefused) {
  // 1..900 at p99: rank 890.01 interpolates to 891.01; only 892..900 (nine
  // values) lie above it.
  const TailSummary summary = Summarize(OneTo(900), 99);
  EXPECT_FALSE(summary.tail.has_value());
  EXPECT_EQ(summary.beyond, 9);
  EXPECT_NE(summary.reason.find("only 9 of 900"), std::string::npos);
}

TEST(SummarizeTest, TiesAtTheTailDoNotCountAsBeyond) {
  const TailSummary summary = Summarize(std::vector<double>(500, 7.0), 90);
  EXPECT_DOUBLE_EQ(summary.median, 7.0);
  EXPECT_FALSE(summary.tail.has_value());
  EXPECT_EQ(summary.beyond, 0);
}

TEST(SummarizeTest, EmptyInputRefusesTheTail) {
  const TailSummary summary = Summarize({}, 90);
  EXPECT_EQ(summary.samples, 0);
  EXPECT_DOUBLE_EQ(summary.median, 0);
  EXPECT_FALSE(summary.tail.has_value());
}

TEST(SummarizeTest, JsonCarriesNullAndReasonWhenRefused) {
  const JsonValue refused = ToJson(Summarize(OneTo(50), 99.9));
  ASSERT_NE(refused.Find("p99.9"), nullptr);
  EXPECT_TRUE(refused.Find("p99.9")->is_null());
  EXPECT_NE(refused.Find("reason"), nullptr);

  const JsonValue reported = ToJson(Summarize(OneTo(1000), 90));
  EXPECT_EQ(reported.Find("samples")->int_value(), 1000);
  EXPECT_TRUE(reported.Find("p90")->is_number());
  EXPECT_EQ(reported.Find("reason"), nullptr);
}

}  // namespace
}  // namespace dcs::e2e
