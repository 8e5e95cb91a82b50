// Tests for the metrics registry (util/metrics.h), its JSON surface, and
// the DESIGN.md §8 metric inventory.
//
// The registry is process-global, so every test works on snapshot diffs
// and test-unique metric names rather than absolute registry state.

#include "util/metrics.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace dcs {
namespace {

using metrics::Counter;
using metrics::Distribution;
using metrics::DistributionStats;
using metrics::MetricsSnapshot;
using metrics::Registry;

TEST(CounterTest, AddAndValue) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.Add(5);
  counter.Increment();
  counter.Add(-2);
  EXPECT_EQ(counter.value(), 4);
}

TEST(CounterTest, ExactUnderParallelFor) {
  Counter counter;
  Distribution distribution;
  constexpr int64_t kIterations = 20000;
  ParallelFor(8, kIterations, [&](int64_t i) {
    counter.Add(1);
    distribution.Record(i % 7);
  });
  EXPECT_EQ(counter.value(), kIterations);
  const DistributionStats stats = distribution.stats();
  EXPECT_EQ(stats.count, kIterations);
  int64_t expected_sum = 0;
  for (int64_t i = 0; i < kIterations; ++i) expected_sum += i % 7;
  EXPECT_EQ(stats.sum, expected_sum);
  EXPECT_EQ(stats.min, 0);
  EXPECT_EQ(stats.max, 6);
}

TEST(DistributionTest, StatsTrackExtremaAndMean) {
  Distribution distribution;
  for (const int64_t v : {1, 2, 4, 8, 1024}) distribution.Record(v);
  const DistributionStats stats = distribution.stats();
  EXPECT_EQ(stats.count, 5);
  EXPECT_EQ(stats.sum, 1039);
  EXPECT_EQ(stats.min, 1);
  EXPECT_EQ(stats.max, 1024);
  EXPECT_DOUBLE_EQ(stats.mean(), 1039.0 / 5.0);
}

TEST(DistributionTest, EmptyStatsAreZero) {
  Distribution distribution;
  const DistributionStats stats = distribution.stats();
  EXPECT_EQ(stats.count, 0);
  EXPECT_EQ(stats.min, 0);
  EXPECT_EQ(stats.max, 0);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.ApproxPercentile(0.5), 0);
}

TEST(DistributionTest, PercentilesAreBucketAccurate) {
  Distribution distribution;
  // 90 samples of 10, 10 samples of 1000.
  for (int i = 0; i < 90; ++i) distribution.Record(10);
  for (int i = 0; i < 10; ++i) distribution.Record(1000);
  const DistributionStats stats = distribution.stats();
  // The log2 histogram is exact up to a factor of 2 and clamped to
  // [min, max]: p50 must land in [10, 20), p99 in [1000, 2000).
  const int64_t p50 = stats.ApproxPercentile(0.50);
  EXPECT_GE(p50, 10);
  EXPECT_LT(p50, 20);
  const int64_t p99 = stats.ApproxPercentile(0.99);
  EXPECT_GE(p99, 1000);
  EXPECT_LT(p99, 2000);
  // Extreme percentiles stay bucket-accurate and clamped to [min, max].
  const int64_t p0 = stats.ApproxPercentile(0.0);
  EXPECT_GE(p0, 10);
  EXPECT_LT(p0, 20);
  EXPECT_EQ(stats.ApproxPercentile(1.0), 1000);
}

TEST(RegistryTest, ReturnsStableReferences) {
  Counter& a = Registry::Get().GetCounter("test.registry.stable");
  Counter& b = Registry::Get().GetCounter("test.registry.stable");
  EXPECT_EQ(&a, &b);
  Distribution& c = Registry::Get().GetDistribution("test.registry.stable");
  Distribution& d = Registry::Get().GetDistribution("test.registry.stable");
  EXPECT_EQ(&c, &d);
}

TEST(RegistryTest, ConcurrentRegistrationAndUse) {
  // Many threads hammering the same small name set: lookups serialize on
  // the mutex, updates stripe; totals must come out exact.
  constexpr int64_t kIterations = 4000;
  ParallelFor(8, kIterations, [&](int64_t i) {
    const std::string name =
        "test.registry.concurrent." + std::to_string(i % 3);
    Registry::Get().GetCounter(name).Add(1);
  });
  int64_t total = 0;
  for (int j = 0; j < 3; ++j) {
    total += Registry::Get()
                 .GetCounter("test.registry.concurrent." + std::to_string(j))
                 .value();
  }
  EXPECT_EQ(total, kIterations);
}

TEST(SnapshotTest, DiffSubtractsCountersAndDistributions) {
  Registry::Get().GetCounter("test.snapshot.counter").Add(10);
  Registry::Get().GetDistribution("test.snapshot.dist").Record(100);
  const MetricsSnapshot before = Registry::Get().Snapshot();
  Registry::Get().GetCounter("test.snapshot.counter").Add(7);
  Registry::Get().GetDistribution("test.snapshot.dist").Record(200);
  Registry::Get().GetDistribution("test.snapshot.dist").Record(300);
  const MetricsSnapshot after = Registry::Get().Snapshot();
  const MetricsSnapshot diff = after.DiffSince(before);
  EXPECT_EQ(diff.counters.at("test.snapshot.counter"), 7);
  EXPECT_EQ(diff.distributions.at("test.snapshot.dist").count, 2);
  EXPECT_EQ(diff.distributions.at("test.snapshot.dist").sum, 500);
}

TEST(SnapshotTest, DiffCountsMetricsAbsentFromEarlierFromZero) {
  const MetricsSnapshot before = Registry::Get().Snapshot();
  Registry::Get().GetCounter("test.snapshot.fresh").Add(3);
  const MetricsSnapshot after = Registry::Get().Snapshot();
  const MetricsSnapshot diff = after.DiffSince(before);
  EXPECT_EQ(diff.counters.at("test.snapshot.fresh"), 3);
}

TEST(SnapshotTest, JsonRoundTripPreservesValues) {
  Registry::Get().GetCounter("test.json.counter").Add(42);
  Registry::Get().GetDistribution("test.json.dist").Record(17);
  const MetricsSnapshot snapshot = Registry::Get().Snapshot();
  const auto parsed = ParseJson(snapshot.ToJsonString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* counter = counters->Find("test.json.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->int_value(),
            snapshot.counters.at("test.json.counter"));
  const JsonValue* distributions = parsed->Find("distributions");
  ASSERT_NE(distributions, nullptr);
  const JsonValue* dist = distributions->Find("test.json.dist");
  ASSERT_NE(dist, nullptr);
  EXPECT_EQ(dist->Find("count")->int_value(),
            snapshot.distributions.at("test.json.dist").count);
  EXPECT_EQ(dist->Find("sum")->int_value(),
            snapshot.distributions.at("test.json.dist").sum);
  // Serialization is byte-deterministic for a given snapshot.
  EXPECT_EQ(snapshot.ToJsonString(), snapshot.ToJsonString());
}

TEST(ScopedTimerTest, RecordsOneNonNegativeSample) {
  Distribution distribution;
  { metrics::ScopedTimer timer(distribution); }
  const DistributionStats stats = distribution.stats();
  EXPECT_EQ(stats.count, 1);
  EXPECT_GE(stats.min, 0);
}

int64_t g_side_effect_calls = 0;
int64_t SideEffect() {
  ++g_side_effect_calls;
  return 1;
}

#if DCS_METRICS_ENABLED

TEST(MacroTest, MacrosRegisterAndCount) {
  const MetricsSnapshot before = Registry::Get().Snapshot();
  DCS_METRIC_INC("test.macro.inc");
  DCS_METRIC_INC("test.macro.inc");
  DCS_METRIC_ADD("test.macro.add", 5);
  DCS_METRIC_RECORD("test.macro.record", 9);
  { DCS_METRIC_TIMER("test.macro.timer"); }
  const MetricsSnapshot diff = Registry::Get().Snapshot().DiffSince(before);
  EXPECT_EQ(diff.counters.at("test.macro.inc"), 2);
  EXPECT_EQ(diff.counters.at("test.macro.add"), 5);
  EXPECT_EQ(diff.distributions.at("test.macro.record").count, 1);
  EXPECT_EQ(diff.distributions.at("test.macro.record").sum, 9);
  EXPECT_EQ(diff.distributions.at("test.macro.timer").count, 1);
}

TEST(MacroTest, TimerAtOneSiteRecordsEveryCall) {
  // The timer caches its distribution at the call site, as ADD and
  // RECORD do; every pass through the site still records.
  const MetricsSnapshot before = Registry::Get().Snapshot();
  for (int i = 0; i < 3; ++i) {
    DCS_METRIC_TIMER("test.macro.timer.loop");
  }
  const MetricsSnapshot diff = Registry::Get().Snapshot().DiffSince(before);
  EXPECT_EQ(diff.distributions.at("test.macro.timer.loop").count, 3);
}

TEST(MacroTest, ArgumentsEvaluatedOnceWhenEnabled) {
  g_side_effect_calls = 0;
  DCS_METRIC_ADD("test.macro.eval", SideEffect());
  EXPECT_EQ(g_side_effect_calls, 1);
}

#else  // !DCS_METRICS_ENABLED

TEST(MacroTest, MacrosAreNoOpsWhenCompiledOut) {
  DCS_METRIC_INC("test.macro.off.inc");
  DCS_METRIC_ADD("test.macro.off.add", 5);
  DCS_METRIC_RECORD("test.macro.off.record", 9);
  DCS_METRIC_TIMER("test.macro.off.timer");
  const MetricsSnapshot snapshot = Registry::Get().Snapshot();
  // Nothing registered: the macros expand to unevaluated no-ops, so the
  // names never reach the registry (no allocation, no atomics).
  EXPECT_EQ(snapshot.counters.count("test.macro.off.inc"), 0u);
  EXPECT_EQ(snapshot.counters.count("test.macro.off.add"), 0u);
  EXPECT_EQ(snapshot.distributions.count("test.macro.off.record"), 0u);
  EXPECT_EQ(snapshot.distributions.count("test.macro.off.timer"), 0u);
}

TEST(MacroTest, ArgumentsNotEvaluatedWhenCompiledOut) {
  g_side_effect_calls = 0;
  DCS_METRIC_ADD("test.macro.off.eval", SideEffect());
  DCS_METRIC_RECORD("test.macro.off.eval2", SideEffect());
  EXPECT_EQ(g_side_effect_calls, 0);
}

TEST(MacroTest, InstrumentedLibraryCodeRegistersNothing) {
  // Drive an instrumented path (ParallelFor carries threadpool.* macros)
  // and check the registry stays empty of library metrics.
  int64_t sum = 0;
  ParallelFor(1, 16, [&](int64_t i) { sum += i; });
  EXPECT_EQ(sum, 120);
  const MetricsSnapshot snapshot = Registry::Get().Snapshot();
  EXPECT_EQ(snapshot.counters.count("threadpool.loop.started"), 0u);
  EXPECT_EQ(snapshot.distributions.count("threadpool.loop.tasks"), 0u);
}

#endif  // DCS_METRICS_ENABLED

// util/json is the serialization surface of the metrics snapshot; its
// contract (determinism, hostile-input handling) is covered here.

TEST(JsonTest, DumpIsDeterministicAndCompact) {
  JsonValue root = JsonValue::MakeObject();
  root.Set("b", 1);
  root.Set("a", 2);
  root.Set("c", JsonValue::MakeArray());
  // Insertion order is preserved; Set on an existing key replaces in place.
  root.Set("b", 3);
  EXPECT_EQ(root.Dump(), "{\"b\":3,\"a\":2,\"c\":[]}");
}

TEST(JsonTest, NumbersRoundTrip) {
  JsonValue root = JsonValue::MakeObject();
  root.Set("int", int64_t{1} << 53);
  root.Set("neg", -17);
  root.Set("pi", 3.25);
  const auto parsed = ParseJson(root.Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("int")->int_value(), int64_t{1} << 53);
  EXPECT_EQ(parsed->Find("neg")->int_value(), -17);
  EXPECT_DOUBLE_EQ(parsed->Find("pi")->number_value(), 3.25);
}

TEST(JsonTest, StringsEscapeAndRoundTrip) {
  JsonValue value(std::string("tab\there \"quoted\" \n and \x01"));
  const auto parsed = ParseJson(value.Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->string_value(), value.string_value());
}

TEST(JsonTest, MalformedInputIsInvalidArgumentNotAbort) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2",
        "{\"a\" 1}", "nul"}) {
    const auto parsed = ParseJson(bad);
    EXPECT_FALSE(parsed.ok()) << "input: " << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(JsonTest, DepthCapRejectsDeepNesting) {
  std::string deep(400, '[');
  deep += std::string(400, ']');
  const auto parsed = ParseJson(deep);
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Inventory: the DESIGN.md §8 table names exactly the metrics src/ emits.
// It reads sources only, so it runs with metrics compiled in or out.
// ---------------------------------------------------------------------------

std::string ReadText(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Every literal name passed to DCS_METRIC_{ADD,INC,RECORD,TIMER} in `text`.
// Macro definitions and non-literal names are skipped.
std::set<std::string> MacroMetricNames(const std::string& text) {
  static const std::set<std::string> kMacros = {"ADD", "INC", "RECORD",
                                                "TIMER"};
  const std::string prefix = "DCS_METRIC_";
  const auto skip_space = [&text](size_t pos) {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    return pos;
  };
  std::set<std::string> names;
  for (size_t at = text.find(prefix); at != std::string::npos;
       at = text.find(prefix, at + 1)) {
    size_t pos = at + prefix.size();
    while (pos < text.size() &&
           std::isupper(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    const std::string macro =
        text.substr(at + prefix.size(), pos - at - prefix.size());
    if (kMacros.count(macro) == 0) continue;
    pos = skip_space(pos);
    if (pos >= text.size() || text[pos] != '(') continue;
    pos = skip_space(pos + 1);
    if (pos >= text.size() || text[pos] != '"') continue;
    const size_t close = text.find('"', pos + 1);
    if (close == std::string::npos) continue;
    names.insert(text.substr(pos + 1, close - pos - 1));
  }
  return names;
}

// Every name in the first column of the §8 table. A `.x.y` shorthand
// replaces as many trailing components of the row's first name as it has;
// `<kind>` patterns are skipped.
std::set<std::string> DocumentedMetricNames(const std::string& design) {
  const size_t begin = design.find("\n## 8.");
  const size_t end = design.find("\n## 9.");
  EXPECT_NE(begin, std::string::npos);
  EXPECT_NE(end, std::string::npos);
  std::istringstream section(design.substr(begin, end - begin));
  std::set<std::string> names;
  std::string line;
  while (std::getline(section, line)) {
    if (line.rfind("| `", 0) != 0) continue;
    const std::string cell = line.substr(0, line.find(" |", 2));
    std::string first;
    size_t open = cell.find('`');
    while (open != std::string::npos) {
      const size_t close = cell.find('`', open + 1);
      std::string name = cell.substr(open + 1, close - open - 1);
      open = cell.find('`', close + 1);
      if (first.empty()) first = name;
      if (name.find('<') != std::string::npos) continue;
      if (name[0] == '.') {
        const int64_t components = std::count(name.begin(), name.end(), '.');
        size_t cut = first.size();
        for (int64_t c = 0; c < components; ++c) {
          cut = first.rfind('.', cut - 1);
        }
        name = first.substr(0, cut) + name;
      }
      names.insert(name);
    }
  }
  return names;
}

TEST(MetricInventoryTest, DesignTableMatchesInstrumentedSources) {
  const std::filesystem::path root(DCS_SOURCE_DIR);
  std::set<std::string> emitted;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root / "src")) {
    const auto extension = entry.path().extension();
    if (!entry.is_regular_file() ||
        (extension != ".h" && extension != ".cc")) {
      continue;
    }
    const std::set<std::string> names =
        MacroMetricNames(ReadText(entry.path()));
    emitted.insert(names.begin(), names.end());
  }
  const std::set<std::string> documented =
      DocumentedMetricNames(ReadText(root / "DESIGN.md"));
  ASSERT_FALSE(emitted.empty());
  ASSERT_FALSE(documented.empty());
  for (const std::string& name : emitted) {
    EXPECT_EQ(documented.count(name), 1u)
        << name << " is emitted under src/ but missing from DESIGN.md §8";
  }
  for (const std::string& name : documented) {
    EXPECT_EQ(emitted.count(name), 1u)
        << "DESIGN.md §8 lists " << name
        << " but no DCS_METRIC_* call under src/ emits it";
  }
}

}  // namespace
}  // namespace dcs
