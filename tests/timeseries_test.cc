// Unit tests for obs::TimeSeriesStore: ring wraparound and retention,
// counter-reset-aware rates, histogram decomposition into derived series,
// the max_series cap, absence handling, and the /timeseriesz JSON shapes.

#include "obs/timeseries.h"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace hom::obs {
namespace {

MetricsSnapshot GaugeSnapshot(const std::string& name, double value) {
  MetricsSnapshot snapshot;
  snapshot.gauges[name] = value;
  return snapshot;
}

MetricsSnapshot CounterSnapshot(const std::string& name, uint64_t value) {
  MetricsSnapshot snapshot;
  snapshot.counters[name] = value;
  return snapshot;
}

TEST(TimeSeriesStoreTest, RawQueryReturnsOldestFirstWithRecords) {
  TimeSeriesStore store;
  for (int i = 0; i < 5; ++i) {
    store.Tick(GaugeSnapshot("g", i * 10.0), /*record=*/100 * (i + 1));
  }
  auto points = store.Query("g", 3);
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), 3u);
  EXPECT_EQ((*points)[0].tick, 2u);
  EXPECT_EQ((*points)[0].record, 300);
  EXPECT_DOUBLE_EQ((*points)[0].value, 20.0);
  EXPECT_EQ((*points)[2].tick, 4u);
  EXPECT_EQ((*points)[2].record, 500);
  EXPECT_DOUBLE_EQ((*points)[2].value, 40.0);
}

TEST(TimeSeriesStoreTest, RingWrapsAndRetainsOnlyConfiguredTicks) {
  TimeSeriesOptions options;
  options.retention_ticks = 4;
  TimeSeriesStore store(options);
  for (int i = 0; i < 10; ++i) {
    store.Tick(GaugeSnapshot("g", static_cast<double>(i)), i);
  }
  // Asking for far more than retention clamps to the last 4 ticks.
  auto points = store.Query("g", 100);
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), 4u);
  for (size_t i = 0; i < points->size(); ++i) {
    EXPECT_EQ((*points)[i].tick, 6 + i);
    EXPECT_DOUBLE_EQ((*points)[i].value, 6.0 + static_cast<double>(i));
  }
  EXPECT_EQ(store.GetStats().retention_ticks, 4u);
  EXPECT_EQ(store.ticks(), 10u);
}

TEST(TimeSeriesStoreTest, LatestAndKind) {
  TimeSeriesStore store;
  store.Tick(CounterSnapshot("c", 7), 1);
  auto latest = store.Latest("c");
  ASSERT_TRUE(latest.ok());
  EXPECT_DOUBLE_EQ(*latest, 7.0);
  auto kind = store.Kind("c");
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, TimeSeriesStore::SeriesKind::kCounter);
  EXPECT_TRUE(store.Latest("nope").status().IsNotFound());
  EXPECT_TRUE(store.Query("nope", 4).status().IsNotFound());
}

TEST(TimeSeriesStoreTest, RateHandlesCounterReset) {
  TimeSeriesStore store;
  const uint64_t values[] = {10, 15, 25, 3, 9};  // reset between 25 and 3
  for (uint64_t v : values) store.Tick(CounterSnapshot("c", v), -1);
  auto rate = store.QueryRate("c", 4);
  ASSERT_TRUE(rate.ok());
  ASSERT_EQ(rate->size(), 4u);
  EXPECT_DOUBLE_EQ((*rate)[0].value, 5.0);
  EXPECT_DOUBLE_EQ((*rate)[1].value, 10.0);
  // The decrease is a restart: the post-reset level bounds the increment.
  EXPECT_DOUBLE_EQ((*rate)[2].value, 3.0);
  EXPECT_DOUBLE_EQ((*rate)[3].value, 6.0);
}

TEST(TimeSeriesStoreTest, AbsentSeriesTicksAreNaNAndRateSkipsThem) {
  TimeSeriesStore store;
  store.Tick(CounterSnapshot("c", 5), -1);
  store.Tick(MetricsSnapshot{}, -1);  // series vanishes for one tick
  store.Tick(CounterSnapshot("c", 9), -1);
  auto points = store.Query("c", 3);
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), 3u);
  EXPECT_TRUE(std::isnan((*points)[1].value));
  auto rate = store.QueryRate("c", 2);
  ASSERT_TRUE(rate.ok());
  ASSERT_EQ(rate->size(), 2u);
  // Both deltas touch the NaN gap tick.
  EXPECT_TRUE(std::isnan((*rate)[0].value));
  EXPECT_TRUE(std::isnan((*rate)[1].value));
  EXPECT_EQ(store.FiniteCount("c", 3), 2u);
  EXPECT_EQ(store.FiniteCount("absent", 3), 0u);
}

TEST(TimeSeriesStoreTest, SeriesBornLateHasNaNBeforeFirstSample) {
  TimeSeriesStore store;
  store.Tick(GaugeSnapshot("old", 1.0), -1);
  store.Tick(GaugeSnapshot("old", 2.0), -1);
  MetricsSnapshot both;
  both.gauges["old"] = 3.0;
  both.gauges["young"] = 30.0;
  store.Tick(both, -1);
  auto points = store.Query("young", 3);
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), 3u);
  EXPECT_TRUE(std::isnan((*points)[0].value));
  EXPECT_TRUE(std::isnan((*points)[1].value));
  EXPECT_DOUBLE_EQ((*points)[2].value, 30.0);
}

TEST(TimeSeriesStoreTest, WindowMeanIgnoresNaN) {
  TimeSeriesStore store;
  store.Tick(GaugeSnapshot("g", 2.0), -1);
  store.Tick(MetricsSnapshot{}, -1);
  store.Tick(GaugeSnapshot("g", 4.0), -1);
  auto mean = store.WindowMean("g", 3);
  ASSERT_TRUE(mean.ok());
  EXPECT_DOUBLE_EQ(*mean, 3.0);
  auto empty = store.WindowMean("g", 0);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(std::isnan(*empty));
}

TEST(TimeSeriesStoreTest, LabeledSeriesKeyedByCanonicalText) {
  TimeSeriesStore store;
  MetricsSnapshot snapshot;
  SeriesKey key;
  key.name = "hom.concept.error_rate";
  key.labels = {{"concept", "2"}};
  snapshot.labeled_gauges[key] = 0.25;
  store.Tick(snapshot, -1);
  auto latest = store.Latest("hom.concept.error_rate{concept=\"2\"}");
  ASSERT_TRUE(latest.ok());
  EXPECT_DOUBLE_EQ(*latest, 0.25);
}

TEST(TimeSeriesStoreTest, HistogramDecomposesIntoDerivedSeries) {
  TimeSeriesStore store;
  MetricsSnapshot snapshot;
  MetricsSnapshot::HistogramData h;
  h.bounds = {1.0, 10.0};
  h.counts = {8, 2, 0};  // 8 in [0,1], 2 in (1,10], overflow empty
  h.count = 10;
  h.sum = 12.0;
  h.min = 0.1;
  h.max = 9.0;
  snapshot.histograms["lat"] = h;
  store.Tick(snapshot, -1);

  auto names = store.SeriesNames();
  EXPECT_EQ(names, (std::vector<std::string>{
                       "lat:count", "lat:p50", "lat:p95", "lat:p99",
                       "lat:sum"}));
  auto count = store.Latest("lat:count");
  ASSERT_TRUE(count.ok());
  EXPECT_DOUBLE_EQ(*count, 10.0);
  EXPECT_EQ(*store.Kind("lat:count"), TimeSeriesStore::SeriesKind::kCounter);
  EXPECT_EQ(*store.Kind("lat:p95"), TimeSeriesStore::SeriesKind::kGauge);
  auto p50 = store.Latest("lat:p50");
  ASSERT_TRUE(p50.ok());
  EXPECT_DOUBLE_EQ(*p50, h.Quantile(0.5));
}

TEST(TimeSeriesStoreTest, MaxSeriesCapDropsNewSeriesNotTicks) {
  TimeSeriesOptions options;
  options.max_series = 2;
  TimeSeriesStore store(options);
  MetricsSnapshot snapshot;
  snapshot.gauges["a"] = 1.0;
  snapshot.gauges["b"] = 2.0;
  snapshot.gauges["c"] = 3.0;  // over the cap, dropped
  store.Tick(snapshot, -1);
  store.Tick(snapshot, -1);
  TimeSeriesStore::Stats stats = store.GetStats();
  EXPECT_EQ(stats.series, 2u);
  EXPECT_EQ(stats.dropped_series, 2u);  // once per tick
  EXPECT_TRUE(store.Latest("c").status().IsNotFound());
  ASSERT_TRUE(store.Latest("b").ok());
}

TEST(TimeSeriesStoreTest, QueryJsonShapesAndErrors) {
  TimeSeriesStore store;
  store.Tick(CounterSnapshot("c", 5), 100);
  store.Tick(MetricsSnapshot{}, 200);  // NaN tick -> null in JSON
  store.Tick(CounterSnapshot("c", 9), 300);

  auto raw = store.QueryJson("c", 3, "raw");
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->Find("series")->as_string(), "c");
  EXPECT_EQ(raw->Find("kind")->as_string(), "counter");
  EXPECT_EQ(raw->Find("mode")->as_string(), "raw");
  const JsonValue* points = raw->Find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->size(), 3u);
  EXPECT_TRUE(points->at(1).Find("value")->is_null());
  EXPECT_DOUBLE_EQ(points->at(2).Find("value")->as_double(), 9.0);
  EXPECT_DOUBLE_EQ(points->at(2).Find("record")->as_double(), 300.0);

  ASSERT_TRUE(store.QueryJson("c", 3, "rate").ok());
  EXPECT_TRUE(store.QueryJson("c", 3, "bogus").status().IsInvalidArgument());
  EXPECT_TRUE(store.QueryJson("absent", 3, "raw").status().IsNotFound());

  JsonValue index = store.IndexJson();
  const JsonValue* stats = index.Find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_DOUBLE_EQ(stats->Find("ticks")->as_double(), 3.0);
  const JsonValue* list = index.Find("series");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ(list->at(0).Find("series")->as_string(), "c");
}

TEST(TimeSeriesStoreTest, MemoryBoundIsFixedByOptions) {
  TimeSeriesOptions options;
  options.retention_ticks = 8;
  options.max_series = 3;
  TimeSeriesStore store(options);
  MetricsSnapshot snapshot;
  for (int i = 0; i < 50; ++i) {
    std::string name = "g";
    name += std::to_string(i);
    snapshot.gauges[name] = i;
  }
  for (int t = 0; t < 100; ++t) store.Tick(snapshot, t);
  TimeSeriesStore::Stats stats = store.GetStats();
  EXPECT_EQ(stats.series, 3u);
  EXPECT_LE(stats.memory_bound_bytes,
            (3 + 1) * 8 * sizeof(double));
}

// TickFromRegistry is an optimization, not a second semantics: against a
// snapshot-fed twin store it must record identical samples — including
// histogram-derived series — both while the binding cache is reused and
// across a rebind forced by a series created between ticks. Series are
// prefixed so the test stays hermetic against the global registry's other
// inhabitants (whose values, e.g. hom.timeseries.ticks, legitimately
// differ between the two stores' sampling instants).
TEST(TimeSeriesStoreTest, TickFromRegistryMatchesSnapshotTick) {
  auto& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter("tsr.equiv.counter");
  Gauge* gauge = registry.GetGauge("tsr.equiv.gauge");
  Histogram* histogram = registry.GetHistogram("tsr.equiv.hist", {1.0, 10.0, 100.0});
  Gauge* labeled =
      registry.GetGaugeFamily("tsr.equiv.fam")->WithLabels({{"k", "v"}});
  counter->Add(7);
  gauge->Set(1.5);
  histogram->Record(3.0);
  histogram->Record(40.0);
  labeled->Set(9.0);

  TimeSeriesStore bound, snap;
  auto tick_both = [&](int64_t record) {
    bound.TickFromRegistry(registry, record);
    snap.Tick(registry.Snapshot(), record);
  };
  tick_both(100);
  // Same series set: the epoch is unchanged, so this tick goes through
  // the cached bindings.
  counter->Add(5);
  gauge->Set(-2.5);
  histogram->Record(0.1);
  tick_both(200);
  // A series created between ticks moves the registry epoch and forces a
  // rebind; the new series must appear from this tick on.
  registry.GetGaugeFamily("tsr.equiv.fam")->WithLabels({{"k", "w"}})->Set(4.0);
  tick_both(300);

  size_t compared = 0;
  for (const std::string& name : snap.SeriesNames()) {
    if (name.rfind("tsr.equiv", 0) != 0) continue;
    ++compared;
    ASSERT_TRUE(bound.Kind(name).ok()) << name;
    EXPECT_EQ(*bound.Kind(name), *snap.Kind(name)) << name;
    auto bound_points = bound.Query(name, 10);
    auto snap_points = snap.Query(name, 10);
    ASSERT_TRUE(bound_points.ok()) << name;
    ASSERT_TRUE(snap_points.ok()) << name;
    ASSERT_EQ(bound_points->size(), snap_points->size()) << name;
    for (size_t i = 0; i < bound_points->size(); ++i) {
      const auto& bp = (*bound_points)[i];
      const auto& sp = (*snap_points)[i];
      EXPECT_EQ(bp.tick, sp.tick) << name;
      EXPECT_EQ(bp.record, sp.record) << name;
      if (std::isnan(sp.value)) {
        EXPECT_TRUE(std::isnan(bp.value)) << name << " tick " << bp.tick;
      } else {
        EXPECT_DOUBLE_EQ(bp.value, sp.value) << name << " tick " << bp.tick;
      }
    }
  }
  // counter + gauge + hist{p50,p95,p99,:count,:sum} + two labeled gauges.
  EXPECT_EQ(compared, 9u);
}

}  // namespace
}  // namespace hom::obs
