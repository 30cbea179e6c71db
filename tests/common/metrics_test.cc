// Copyright 2026 The dpcube Authors.
//
// The metrics registry's contracts: registration idempotence (same
// (family, labels) -> same object), type-mismatch safety (sinks, never
// crashes or duplicate families), Prometheus exposition validity, the
// pinned LatencyHistogram quantile edge semantics, and the /proc
// resource tracker's sanity on Linux.

#include "common/metrics.h"

#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace dpcube {
namespace metrics {
namespace {

TEST(CounterTest, IncrementsAccumulate) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(RegistryTest, SameFamilyAndLabelsReturnTheSameObject) {
  Registry registry;
  Counter* a = registry.GetCounter("f_total", "verb=\"query\"", "help");
  Counter* b = registry.GetCounter("f_total", "verb=\"query\"", "ignored");
  EXPECT_EQ(a, b);
  Counter* other = registry.GetCounter("f_total", "verb=\"load\"", "");
  EXPECT_NE(a, other);
  a->Increment();
  EXPECT_EQ(b->value(), 1u);

  LatencyHistogram* h1 = registry.GetHistogram("lat_us", "", "help");
  LatencyHistogram* h2 = registry.GetHistogram("lat_us", "", "");
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(registry.family_count(), 2u);
}

TEST(RegistryTest, TypeMismatchHandsOutDetachedSinkNotACrash) {
  Registry registry;
  Counter* counter = registry.GetCounter("name", "", "a counter");
  // Re-registering the same family as a histogram must not corrupt the
  // counter family; the caller gets a working-but-unrendered object.
  LatencyHistogram* sink = registry.GetHistogram("name", "", "clash");
  ASSERT_NE(sink, nullptr);
  sink->Record(1e-3);
  counter->Increment();
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE name counter"), std::string::npos);
  EXPECT_EQ(text.find("name_bucket"), std::string::npos);
  EXPECT_EQ(registry.family_count(), 1u);
}

TEST(RegistryTest, GaugeAndCallbackCounterReadLiveValues) {
  Registry registry;
  double live = 7.0;
  registry.RegisterGauge("g", "", "a gauge", [&live] { return live; });
  std::uint64_t events = 3;
  registry.RegisterCallbackCounter("c_total", "", "view", [&events] {
    return static_cast<double>(events);
  });
  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("g 7\n"), std::string::npos) << text;
  EXPECT_NE(text.find("c_total 3\n"), std::string::npos) << text;
  live = 9.5;
  events = 4;
  text = registry.RenderPrometheus();
  EXPECT_NE(text.find("g 9.5\n"), std::string::npos) << text;
  EXPECT_NE(text.find("c_total 4\n"), std::string::npos) << text;
}

TEST(RegistryTest, ExternalHistogramRendersOwnerState) {
  Registry registry;
  auto owned = std::make_shared<LatencyHistogram>();
  registry.RegisterExternalHistogram("ext_us", "", "external", owned);
  owned->Record(100e-6);  // 100 us -> bucket [64, 128).
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE ext_us histogram"), std::string::npos);
  EXPECT_NE(text.find("ext_us_count 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("ext_us_sum 100\n"), std::string::npos) << text;
  EXPECT_NE(text.find("ext_us_bucket{le=\"+Inf\"} 1\n"), std::string::npos)
      << text;
}

// Structural validity of the exposition: every family has exactly one
// # TYPE line, every sample belongs to a typed family, no duplicate
// (name, labels) samples, histograms' bucket series are cumulative and
// end with +Inf == _count.
TEST(RegistryTest, PrometheusExpositionIsStructurallyValid) {
  Registry registry;
  registry.GetCounter("req_total", "verb=\"query\"", "requests")->Increment(5);
  registry.GetCounter("req_total", "verb=\"load\"", "")->Increment(2);
  registry.RegisterGauge("depth", "", "queue depth", [] { return 3.0; });
  LatencyHistogram* h = registry.GetHistogram("lat_us", "", "latency");
  h->Record(5e-6);
  h->Record(3e-3);

  const std::string text = registry.RenderPrometheus();
  std::istringstream lines(text);
  std::string line;
  std::map<std::string, int> type_lines;
  std::set<std::string> samples;
  std::map<std::string, std::uint64_t> last_bucket_value;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# HELP ", 0) == 0) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string family, type;
      fields >> family >> type;
      EXPECT_TRUE(type == "counter" || type == "gauge" ||
                  type == "histogram")
          << line;
      EXPECT_EQ(++type_lines[family], 1) << "duplicate TYPE for " << family;
      continue;
    }
    // A sample: "name[{labels}] value".
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string series = line.substr(0, space);
    EXPECT_TRUE(samples.insert(series).second)
        << "duplicate sample " << series;
    // Strip labels, then any _bucket/_sum/_count suffix, and check the
    // base family was typed.
    std::string family = series.substr(0, series.find('{'));
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s(suffix);
      if (family.size() > s.size() &&
          family.compare(family.size() - s.size(), s.size(), s) == 0) {
        const std::string base = family.substr(0, family.size() - s.size());
        if (type_lines.count(base)) family = base;
        break;
      }
    }
    EXPECT_EQ(type_lines.count(family), 1u)
        << "sample for untyped family: " << line;
    // Histogram buckets must be cumulative (non-decreasing).
    if (series.find("_bucket{") != std::string::npos) {
      const std::uint64_t value =
          std::stoull(line.substr(space + 1));
      const std::string prefix = series.substr(0, series.find("le=\""));
      EXPECT_GE(value, last_bucket_value[prefix]) << line;
      last_bucket_value[prefix] = value;
    }
  }
  // The two recorded samples surface in _count and the +Inf bucket.
  EXPECT_NE(text.find("lat_us_count 2\n"), std::string::npos) << text;
  EXPECT_NE(text.find("lat_us_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
}

// --- LatencyHistogram quantile edge regression (satellite b) ---

TEST(LatencyHistogramTest, EmptyHistogramAnswersZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.QuantileMicros(0.0), 0.0);
  EXPECT_EQ(h.QuantileMicros(0.5), 0.0);
  EXPECT_EQ(h.QuantileMicros(1.0), 0.0);
}

TEST(LatencyHistogramTest, InteriorQuantileIsGeometricMidpoint) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.Record(100e-6);  // Bucket [64, 128).
  EXPECT_DOUBLE_EQ(h.QuantileMicros(0.5), std::exp2(6.5));
}

TEST(LatencyHistogramTest, PZeroIsLowerEdgeAndPOneIsUpperEdge) {
  LatencyHistogram h;
  h.Record(10e-6);    // Bucket 3: [8, 16).
  h.Record(1000e-6);  // Bucket 9: [512, 1024).
  // p=0: the LOWER edge of the first occupied bucket — a certain lower
  // bound on the minimum, not a midpoint estimate.
  EXPECT_DOUBLE_EQ(h.QuantileMicros(0.0), 8.0);
  // p=1: the UPPER edge of the last occupied bucket — an upper bound on
  // the maximum.
  EXPECT_DOUBLE_EQ(h.QuantileMicros(1.0), 1024.0);
}

TEST(LatencyHistogramTest, SubMicrosecondSamplesAnchorPZeroAtZero) {
  LatencyHistogram h;
  h.Record(0.5e-6);  // Bucket 0 absorbs sub-microsecond samples.
  EXPECT_DOUBLE_EQ(h.QuantileMicros(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.QuantileMicros(1.0), 2.0);
}

TEST(LatencyHistogramTest, SaturatedTopBucketReportsItsLowerEdge) {
  LatencyHistogram h;
  // An 80-minute outlier lands in the unbounded top bucket. The old
  // behavior reported the bucket's geometric midpoint (exp2(30.5) us,
  // a fabricated ~25 min); the pinned behavior is the bucket's LOWER
  // edge — a value that is certainly <= the true latency.
  h.Record(4800.0);
  const double top_lower = std::exp2(LatencyHistogram::kBuckets - 1);
  EXPECT_DOUBLE_EQ(h.QuantileMicros(0.5), top_lower);
  EXPECT_DOUBLE_EQ(h.QuantileMicros(1.0), top_lower);
  EXPECT_DOUBLE_EQ(h.QuantileMicros(0.0), top_lower);

  // Mixed: fast samples plus one outlier. p=1 must still not fabricate
  // an upper edge for the unbounded bucket.
  LatencyHistogram mixed;
  for (int i = 0; i < 99; ++i) mixed.Record(10e-6);
  mixed.Record(4800.0);
  EXPECT_DOUBLE_EQ(mixed.QuantileMicros(0.5), std::exp2(3.5));
  EXPECT_DOUBLE_EQ(mixed.QuantileMicros(1.0), top_lower);
}

TEST(LatencyHistogramTest, CountAndSumTrackRecords) {
  LatencyHistogram h;
  h.Record(3e-6);
  h.Record(7e-6);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum_micros(), 10u);

  // Sub-microsecond samples keep their time in the sum: ten 0.4 us
  // records render `_sum 4`, not ten rounded-down zeros.
  Registry registry;
  LatencyHistogram* fine = registry.GetHistogram("fine_us", "", "");
  for (int i = 0; i < 10; ++i) fine->Record(0.4e-6);
  EXPECT_NE(registry.RenderPrometheus().find("fine_us_sum 4\n"),
            std::string::npos);
}

TEST(LatencyHistogramTest, BucketEdgesArePowersOfTwo) {
  EXPECT_EQ(LatencyHistogram::BucketLowerEdgeMicros(0), 0.0);
  EXPECT_EQ(LatencyHistogram::BucketUpperEdgeMicros(0), 2.0);
  EXPECT_EQ(LatencyHistogram::BucketLowerEdgeMicros(10), 1024.0);
  EXPECT_EQ(LatencyHistogram::BucketUpperEdgeMicros(10), 2048.0);
}

// --- ResourceTracker (satellite of the tentpole) ---

TEST(ResourceTrackerTest, SamplesArePlausibleOnLinux) {
  ResourceTracker tracker;
  const ResourceTracker::Sample sample = tracker.TakeSample();
  // A running test binary has a nonzero RSS and at least stdin/out/err
  // open wherever /proc is readable; where it is not, fields are 0 by
  // contract. Either way nothing is negative or NaN.
  EXPECT_GE(sample.rss_bytes, 0.0);
  EXPECT_GE(sample.vsize_bytes, sample.rss_bytes);
  EXPECT_GE(sample.open_fds, 0.0);
  EXPECT_GE(sample.cpu_seconds, 0.0);
  EXPECT_GE(sample.uptime_seconds, 0.0);
  EXPECT_FALSE(std::isnan(sample.rss_bytes));
#ifdef __linux__
  EXPECT_GT(sample.rss_bytes, 0.0);
  EXPECT_GE(sample.open_fds, 3.0);
#endif
}

TEST(ResourceTrackerTest, RegistersProcessFamilies) {
  Registry registry;
  auto tracker = RegisterResourceTracker(&registry);
  ASSERT_NE(tracker, nullptr);
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE dpcube_process_resident_memory_bytes gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dpcube_process_open_fds gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dpcube_process_cpu_seconds_total counter"),
            std::string::npos);
  EXPECT_EQ(registry.family_count(), 5u);
}

}  // namespace
}  // namespace metrics
}  // namespace dpcube
