// Tests for obs::metrics — the sharded counter/gauge/histogram registry.
// Load-bearing claims: updates while disabled are dropped, counters are
// count-exact under multi-threaded hammering, histogram bucketing follows
// Prometheus "le" semantics exactly at the bucket edges, reset zeroes
// without invalidating handles, and both export formats pass their own
// structural validators.
//
// The registry is process-global, so every test starts from
// reset_metrics() and leaves obs disabled.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "obs/trace.h"

namespace tsufail::obs {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset_metrics();
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    reset_metrics();
  }
};

TEST_F(MetricsTest, CounterCountsOnlyWhileEnabled) {
  Counter hits = counter("test.hits");
  hits.add();
  hits.add(4);
  set_enabled(false);
  hits.add(100);  // dropped: obs is off
  set_enabled(true);
  hits.increment();

  const auto snapshot = collect_metrics();
  const auto* value = snapshot.find_counter("test.hits");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->value, 6u);
}

TEST_F(MetricsTest, RegistrationIsIdempotentAcrossHandles) {
  Counter a = counter("test.same");
  Counter b = counter("test.same");
  a.add(2);
  b.add(3);
  const auto snapshot = collect_metrics();
  ASSERT_NE(snapshot.find_counter("test.same"), nullptr);
  EXPECT_EQ(snapshot.find_counter("test.same")->value, 5u);
}

TEST_F(MetricsTest, UnsetGaugesAreOmittedAndSetGaugesLastWriteWins) {
  Gauge set_gauge = gauge("test.depth");
  (void)gauge("test.never_set");
  set_gauge.set(3.0);
  set_gauge.set(7.5);

  const auto snapshot = collect_metrics();
  ASSERT_NE(snapshot.find_gauge("test.depth"), nullptr);
  EXPECT_EQ(snapshot.find_gauge("test.depth")->value, 7.5);
  EXPECT_EQ(snapshot.find_gauge("test.never_set"), nullptr);
}

TEST_F(MetricsTest, HistogramBucketEdgesFollowLeSemantics) {
  const std::vector<double> bounds{1.0, 2.0, 4.0};
  Histogram h = histogram("test.edges", bounds);
  // A value exactly on a bound lands in that bound's bucket (v <= bound).
  h.observe(1.0);
  h.observe(2.0);
  h.observe(4.0);
  h.observe(0.5);                       // below everything -> bucket 0
  h.observe(4.0000001);                 // above the last bound -> +Inf
  h.observe(1.5);                       // interior -> bucket 1

  const auto snapshot = collect_metrics();
  const auto* value = snapshot.find_histogram("test.edges");
  ASSERT_NE(value, nullptr);
  ASSERT_EQ(value->bounds, bounds);
  ASSERT_EQ(value->counts.size(), 4u);  // 3 bounds + +Inf
  EXPECT_EQ(value->counts[0], 2u);      // 0.5, 1.0
  EXPECT_EQ(value->counts[1], 2u);      // 1.5, 2.0
  EXPECT_EQ(value->counts[2], 1u);      // 4.0
  EXPECT_EQ(value->counts[3], 1u);      // 4.0000001
  EXPECT_EQ(value->count, 6u);
  EXPECT_EQ(value->cumulative(0), 2u);
  EXPECT_EQ(value->cumulative(1), 4u);
  EXPECT_EQ(value->cumulative(2), 5u);
  EXPECT_EQ(value->cumulative(3), 6u);
  EXPECT_DOUBLE_EQ(value->sum, 1.0 + 2.0 + 4.0 + 0.5 + 4.0000001 + 1.5);
}

TEST_F(MetricsTest, CountersAreExactUnderThreads) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 20'000;

  Counter hammered = counter("test.hammered");
  Histogram h = histogram("test.hammered_values", std::vector<double>{0.5});
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&hammered, &h] {
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) {
        hammered.add();
        h.observe(1.0);
      }
    });
  }
  for (auto& thread : pool) thread.join();

  // Exited threads' shards must still be visible in the snapshot.
  const auto snapshot = collect_metrics();
  ASSERT_NE(snapshot.find_counter("test.hammered"), nullptr);
  EXPECT_EQ(snapshot.find_counter("test.hammered")->value, kThreads * kAddsPerThread);
  ASSERT_NE(snapshot.find_histogram("test.hammered_values"), nullptr);
  EXPECT_EQ(snapshot.find_histogram("test.hammered_values")->count,
            kThreads * kAddsPerThread);
}

TEST_F(MetricsTest, ResetZeroesButKeepsHandlesValid) {
  Counter hits = counter("test.reset_me");
  hits.add(9);
  reset_metrics();
  const auto zeroed = collect_metrics();
  ASSERT_NE(zeroed.find_counter("test.reset_me"), nullptr);
  EXPECT_EQ(zeroed.find_counter("test.reset_me")->value, 0u);

  hits.add(2);  // the pre-reset handle still works
  const auto after = collect_metrics();
  EXPECT_EQ(after.find_counter("test.reset_me")->value, 2u);
}

TEST_F(MetricsTest, JsonExportContainsEverySection) {
  counter("test.json_counter").add(3);
  gauge("test.json_gauge").set(1.25);
  histogram("test.json_hist", std::vector<double>{1.0}).observe(0.5);

  const std::string json = metrics_json(collect_metrics());
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_hist\""), std::string::npos);
}

TEST_F(MetricsTest, PrometheusExportPassesItsOwnValidator) {
  counter("test.prom-counter").add(2);
  gauge("test.prom_gauge").set(4.0);
  Histogram h = histogram("test.prom_hist", std::vector<double>{0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);

  const std::string text = prometheus_text(collect_metrics());
  // '.' and '-' both sanitize to '_' in the exposition names.
  EXPECT_NE(text.find("test_prom_counter 2"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);

  auto check = check_prometheus_text(text);
  ASSERT_TRUE(check.ok()) << check.error().to_string();
  EXPECT_GT(check.value().samples, 0u);
  EXPECT_GE(check.value().families, 3u);
}

TEST(HistogramQuantile, InterpolatesWithinTheOwningBucket) {
  HistogramValue h;
  h.bounds = {1.0, 2.0, 4.0};
  h.counts = {10, 10, 0, 0};  // 20 observations, none past 2.0
  h.count = 20;
  // p50 sits exactly at the first bucket's upper bound; p75 is halfway
  // through the second bucket [1, 2].
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.75), 1.5);
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 1.0), 2.0);
  // The first bucket interpolates from 0.
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.25), 0.5);
  // Out-of-range quantiles clamp instead of misbehaving.
  EXPECT_DOUBLE_EQ(histogram_quantile(h, -1.0), histogram_quantile(h, 0.0));
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 2.0), histogram_quantile(h, 1.0));
}

TEST(HistogramQuantile, OverflowBucketReportsTheHighestFiniteBound) {
  HistogramValue h;
  h.bounds = {1.0, 2.0};
  h.counts = {1, 0, 9};  // most observations beyond every finite bound
  h.count = 10;
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.99), 2.0);
}

TEST(HistogramQuantile, EmptyHistogramIsZero) {
  HistogramValue h;
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.5), 0.0);
  h.bounds = {1.0};
  h.counts = {0, 0};
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.5), 0.0);
}

TEST_F(MetricsTest, ExemplarCaptureIsExactUnderContention) {
  // Eight threads hammer one exemplar-enabled histogram, each inside its
  // own span.  The total count must be exact (exemplar capture never
  // drops or double-counts observations) and every captured exemplar
  // must carry one of the eight span trace ids whole — a torn seqlock
  // read would surface as an id outside the set (or 0 with a nonzero
  // observation recorded under a live span).
  const double bounds[] = {0.01, 0.1, 1.0};
  Histogram contended = histogram("test.contended", bounds, ExemplarMode::kMaxPerBucket);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 5000;
  const double values[] = {0.005, 0.05, 0.5, 5.0};  // one per bucket incl. +Inf

  std::vector<std::uint64_t> ids(kThreads, 0);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      SpanScope span("contended.worker");
      ids[t] = current_trace_id();
      for (std::size_t i = 0; i < kPerThread; ++i)
        contended.observe(values[(t + i) % 4]);
    });
  }
  for (auto& worker : workers) worker.join();

  const auto snapshot = collect_metrics();
  const auto* h = snapshot.find_histogram("test.contended");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t c : h->counts) bucket_total += c;
  EXPECT_EQ(bucket_total, kThreads * kPerThread);

  ASSERT_FALSE(h->exemplars.empty());
  for (const auto& exemplar : h->exemplars) {
    bool known = false;
    for (std::uint64_t id : ids) known = known || exemplar.trace_id == id;
    EXPECT_TRUE(known) << "torn or foreign trace id " << exemplar.trace_id;
    // The captured value must be one the threads actually observed, and
    // must belong to the bucket the exemplar claims.
    bool observed = false;
    for (double v : values) observed = observed || exemplar.value == v;
    EXPECT_TRUE(observed) << exemplar.value;
    ASSERT_LT(exemplar.bucket, h->counts.size());
    if (exemplar.bucket < h->bounds.size()) {
      EXPECT_LE(exemplar.value, h->bounds[exemplar.bucket]);
    }
    EXPECT_EQ(exemplar.window, exemplar_window());
  }
}

TEST_F(MetricsTest, AdvancingTheWindowRetiresStaleExemplars) {
  const double bounds[] = {1.0};
  Histogram h = histogram("test.windowed", bounds, ExemplarMode::kMaxPerBucket);
  h.observe(0.9);
  const std::uint64_t next = advance_exemplar_window();
  // The old cell is stale: the next observation overwrites it even though
  // its value is smaller ("slowest" resets per window).
  h.observe(0.1);
  const auto snapshot = collect_metrics();
  const auto* value = snapshot.find_histogram("test.windowed");
  ASSERT_NE(value, nullptr);
  const auto* exemplar = value->find_exemplar(0);
  ASSERT_NE(exemplar, nullptr);
  EXPECT_DOUBLE_EQ(exemplar->value, 0.1);
  EXPECT_EQ(exemplar->window, next);
}

TEST_F(MetricsTest, PrometheusTextParsesBackFieldForField) {
  counter("pin_requests").add(7);
  counter("pin_untouched");  // registered, never updated: reports 0
  gauge("pin_depth").set(-2.5);
  gauge("pin_ratio").set(0.1);
  const double latency_bounds[] = {0.001, 0.1, 1.0};
  Histogram latency = histogram("pin_latency", latency_bounds, ExemplarMode::kMaxPerBucket);
  Histogram sizes = histogram("pin_sizes", std::vector<double>{10.0, 100.0});
  {
    SpanScope span("pin.query");  // exemplars take the innermost span's trace id
    latency.observe(0.05);
    latency.observe(0.07);
    latency.observe(3.0);
  }
  latency.observe(0.0005);  // outside any span: trace id 0
  sizes.observe(5.0);
  sizes.observe(500.0);

  // Only this test's metrics: the registry is process-global, and other
  // names ('.'-separated) come back sanitized.
  MetricsSnapshot pinned;
  const MetricsSnapshot all = collect_metrics();
  const auto ours = [](const auto& metric) { return metric.name.starts_with("pin_"); };
  std::copy_if(all.counters.begin(), all.counters.end(), std::back_inserter(pinned.counters), ours);
  std::copy_if(all.gauges.begin(), all.gauges.end(), std::back_inserter(pinned.gauges), ours);
  std::copy_if(all.histograms.begin(), all.histograms.end(),
               std::back_inserter(pinned.histograms), ours);
  ASSERT_EQ(pinned.counters.size(), 2u);
  ASSERT_EQ(pinned.gauges.size(), 2u);
  ASSERT_EQ(pinned.histograms.size(), 2u);
  ASSERT_EQ(pinned.histograms[0].exemplars.size(), 3u);

  const auto parsed = parse_prometheus_text(prometheus_text(pinned));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  const MetricsSnapshot& back = parsed.value();
  ASSERT_EQ(back.counters.size(), pinned.counters.size());
  for (std::size_t i = 0; i < pinned.counters.size(); ++i) {
    EXPECT_EQ(back.counters[i].name, pinned.counters[i].name);
    EXPECT_EQ(back.counters[i].value, pinned.counters[i].value);
  }
  ASSERT_EQ(back.gauges.size(), pinned.gauges.size());
  for (std::size_t i = 0; i < pinned.gauges.size(); ++i) {
    EXPECT_EQ(back.gauges[i].name, pinned.gauges[i].name);
    EXPECT_EQ(back.gauges[i].value, pinned.gauges[i].value);
  }
  ASSERT_EQ(back.histograms.size(), pinned.histograms.size());
  for (std::size_t i = 0; i < pinned.histograms.size(); ++i) {
    const HistogramValue& want = pinned.histograms[i];
    const HistogramValue& got = back.histograms[i];
    SCOPED_TRACE(want.name);
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.bounds, want.bounds);
    EXPECT_EQ(got.counts, want.counts);
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(got.sum, want.sum);
    ASSERT_EQ(got.exemplars.size(), want.exemplars.size());
    for (std::size_t e = 0; e < want.exemplars.size(); ++e) {
      EXPECT_EQ(got.exemplars[e].bucket, want.exemplars[e].bucket);
      EXPECT_EQ(got.exemplars[e].value, want.exemplars[e].value);
      EXPECT_EQ(got.exemplars[e].trace_id, want.exemplars[e].trace_id);
      EXPECT_EQ(got.exemplars[e].window, 0u);  // the exposition carries no window
    }
  }
}

TEST_F(MetricsTest, ValidatorRejectsUndeclaredAndNonCumulative) {
  EXPECT_FALSE(check_prometheus_text("undeclared_metric 1\n").ok());
  const std::string non_cumulative =
      "# HELP bad_hist h\n"
      "# TYPE bad_hist histogram\n"
      "bad_hist_bucket{le=\"1\"} 5\n"
      "bad_hist_bucket{le=\"+Inf\"} 3\n"
      "bad_hist_sum 1\n"
      "bad_hist_count 3\n";
  EXPECT_FALSE(check_prometheus_text(non_cumulative).ok());
}

TEST(PrometheusText, CountsOutsideUint64AreRejectedBeforeAnyCast) {
  // A scraped page is outside input: counter, bucket and _count values
  // become uint64_t, so anything outside [0, 2^64) must fail the check
  // (and the parser, which relies on it) instead of being cast.
  for (const char* bad : {"-1", "-0.5", "nan", "inf", "-inf", "1e300", "18446744073709551616"}) {
    const std::string counter = std::string("# TYPE x counter\nx ") + bad + "\n";
    const auto check = check_prometheus_text(counter);
    ASSERT_FALSE(check.ok()) << bad;
    EXPECT_EQ(check.error().kind(), ErrorKind::kValidation);
    EXPECT_EQ(check.error().message(), "prometheus line 2: count '" + std::string(bad) +
                                           "' of 'x' is outside [0, 2^64)");
    EXPECT_FALSE(parse_prometheus_text(counter).ok()) << bad;
  }
  const std::string bucket =
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 1e300\n"
      "h_bucket{le=\"+Inf\"} 1e300\n"
      "h_sum 1\n"
      "h_count 3\n";
  EXPECT_FALSE(check_prometheus_text(bucket).ok());
  EXPECT_FALSE(parse_prometheus_text(bucket).ok());
  const std::string count =
      "# TYPE h histogram\n"
      "h_bucket{le=\"+Inf\"} 3\n"
      "h_sum 1\n"
      "h_count -1\n";
  EXPECT_FALSE(check_prometheus_text(count).ok());
  EXPECT_FALSE(parse_prometheus_text(count).ok());

  // The largest double below 2^64 still fits; gauges and _sum are
  // doubles, so negatives and NaN stay valid there.
  const auto top = parse_prometheus_text("# TYPE x counter\nx 18446744073709549568\n");
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top.value().counters.size(), 1u);
  EXPECT_EQ(top.value().counters[0].value, 18446744073709549568u);
  EXPECT_TRUE(check_prometheus_text("# TYPE g gauge\ng -1\n# TYPE f gauge\nf nan\n").ok());
  EXPECT_TRUE(check_prometheus_text(
                  "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 0\nh_sum -2.5\nh_count 0\n")
                  .ok());
}

TEST(PrometheusText, ExemplarTraceIdsLongerThan16HexDigitsAreRejected) {
  // trace_id_hex always writes 16 digits, so a longer id names no span
  // (and would overflow the parsed uint64_t).
  const std::string long_id =
      "# TYPE h histogram\n"
      "h_bucket{le=\"+Inf\"} 1 # {trace_id=\"10000000000000000\"} 0.5\n"
      "h_sum 0.5\n"
      "h_count 1\n";
  const auto long_check = check_prometheus_text(long_id);
  ASSERT_FALSE(long_check.ok());
  EXPECT_EQ(long_check.error().message(),
            "prometheus line 2: exemplar trace_id '10000000000000000' is longer than 16 hex "
            "digits");
  EXPECT_FALSE(parse_prometheus_text(long_id).ok());
  std::string sixteen = long_id;
  sixteen.erase(sixteen.find("10000000000000000"), 1);
  const auto parsed = parse_prometheus_text(sixteen);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().histograms[0].exemplars[0].trace_id, 0ull);
}

}  // namespace
}  // namespace tsufail::obs
