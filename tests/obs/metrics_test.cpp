#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/stage_timer.h"
#include "obs/trace.h"

namespace scd::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  MetricsRegistry registry;
  Counter& c = registry.counter("c_total", "help");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("g", "help");
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.set(-7.0);  // gauges may go negative
  EXPECT_DOUBLE_EQ(g.value(), -7.0);
}

TEST(HistogramTest, CountSumAndBucketPlacement) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("h", "help", {1.0, 2.0, 4.0});
  h.observe(0.5);   // bucket 0 (le 1)
  h.observe(1.0);   // bucket 0 (le is inclusive)
  h.observe(1.5);   // bucket 1
  h.observe(100.0); // +Inf bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 103.0);
  EXPECT_DOUBLE_EQ(h.mean(), 103.0 / 4.0);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 0u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // overflow
}

TEST(HistogramTest, RejectsUnsortedBounds) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.histogram("bad", "help", {1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(registry.histogram("bad2", "help", {2.0, 1.0}),
               std::invalid_argument);
}

TEST(HistogramTest, QuantileInterpolatesWithinBucket) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("h", "help", {10.0, 20.0, 30.0});
  // 10 observations uniformly "in" (15, 20]-style bucket placement:
  for (int i = 0; i < 10; ++i) h.observe(15.0);  // all in (10, 20]
  // Median rank 5/10 -> halfway through bucket (10, 20] -> 15.
  EXPECT_NEAR(h.quantile(0.5), 15.0, 1e-9);
  // p100 -> top of that bucket.
  EXPECT_NEAR(h.quantile(1.0), 20.0, 1e-9);
}

TEST(HistogramTest, QuantileAcrossBuckets) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("h", "help", {1.0, 2.0, 3.0});
  for (int i = 0; i < 50; ++i) h.observe(0.5);  // bucket (−inf→0..1]
  for (int i = 0; i < 50; ++i) h.observe(2.5);  // bucket (2, 3]
  EXPECT_LE(h.quantile(0.25), 1.0);
  EXPECT_GT(h.quantile(0.75), 2.0);
  EXPECT_LE(h.quantile(0.75), 3.0);
  // Monotone in q.
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev - 1e-12);
    prev = v;
  }
}

TEST(HistogramTest, QuantileEdgeCases) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("h", "help", {1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  h.observe(99.0);                         // only the +Inf bucket
  // No finite upper bound: clamps to the largest finite bound.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
}

TEST(HistogramTest, DefaultLatencyBucketsAreSorted) {
  const auto bounds = Histogram::default_latency_buckets();
  ASSERT_GE(bounds.size(), 10u);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
  EXPECT_LE(bounds.front(), 1e-6);  // covers a sampled sketch UPDATE
  EXPECT_GE(bounds.back(), 1.0);    // covers a grid-search re-fit
}

TEST(Registry, SameIdentityReturnsSameInstance) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x_total", "help");
  Counter& b = registry.counter("x_total", "help");
  EXPECT_EQ(&a, &b);
  // Label order must not matter.
  Counter& c = registry.counter("y_total", "h", {{"a", "1"}, {"b", "2"}});
  Counter& d = registry.counter("y_total", "h", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&c, &d);
}

TEST(Registry, DifferentLabelsJoinTheSameFamily) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x_total", "help", {{"kind", "a"}});
  Counter& b = registry.counter("x_total", "help", {{"kind", "b"}});
  EXPECT_NE(&a, &b);
  EXPECT_EQ(registry.family_count(), 1u);
  const auto families = registry.families();
  ASSERT_EQ(families.size(), 1u);
  EXPECT_EQ(families[0].instances.size(), 2u);
}

TEST(Registry, TypeConflictThrows) {
  MetricsRegistry registry;
  (void)registry.counter("x", "help");
  EXPECT_THROW(registry.gauge("x", "help"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("x", "help", {1.0}), std::invalid_argument);
}

TEST(Registry, HistogramBoundsConflictThrows) {
  MetricsRegistry registry;
  (void)registry.histogram("h", "help", {1.0, 2.0}, {{"s", "a"}});
  EXPECT_THROW(registry.histogram("h", "help", {1.0, 3.0}, {{"s", "b"}}),
               std::invalid_argument);
}

TEST(Registry, RejectsInvalidNames) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.counter("", "help"), std::invalid_argument);
  EXPECT_THROW(registry.counter("1bad", "help"), std::invalid_argument);
  EXPECT_THROW(registry.counter("has space", "help"), std::invalid_argument);
  EXPECT_THROW(registry.counter("has-dash", "help"), std::invalid_argument);
  EXPECT_NO_THROW(registry.counter("ok_name:sub", "help"));
}

TEST(Registry, FamiliesAreSortedByName) {
  MetricsRegistry registry;
  (void)registry.counter("zzz", "help");
  (void)registry.gauge("aaa", "help");
  const auto families = registry.families();
  ASSERT_EQ(families.size(), 2u);
  EXPECT_EQ(families[0].name, "aaa");
  EXPECT_EQ(families[1].name, "zzz");
}

TEST(Registry, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

TEST(Concurrency, EightThreadsIncrementWithoutLoss) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("c_total", "help");
  Gauge& gauge = registry.gauge("g", "help");
  Histogram& histogram = registry.histogram("h", "help", {0.25, 0.5, 0.75});
  constexpr int kThreads = 8;
  constexpr int kOps = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &gauge, &histogram, t] {
      for (int i = 0; i < kOps; ++i) {
        counter.inc();
        gauge.add(1.0);
        histogram.observe(static_cast<double>((t + i) % 4) * 0.25);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_DOUBLE_EQ(gauge.value(), static_cast<double>(kThreads) * kOps);
  EXPECT_EQ(histogram.count(), static_cast<std::uint64_t>(kThreads) * kOps);
  std::uint64_t buckets = 0;
  for (std::size_t i = 0; i <= histogram.bounds().size(); ++i) {
    buckets += histogram.bucket_count(i);
  }
  EXPECT_EQ(buckets, histogram.count());
}

TEST(Concurrency, RegistrationRacesResolveToOneInstance) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &seen, t] {
      seen[t] = &registry.counter("raced_total", "help");
      seen[t]->inc();
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(seen[0]->value(), static_cast<std::uint64_t>(kThreads));
}

TEST(StageTimerTest, ObservesElapsedOnDestruction) {
  MetricsRegistry registry;
  Histogram& h =
      registry.histogram("t", "help", Histogram::default_latency_buckets());
  TraceController trace;  // tracing off: the histogram is the only sink
  {
    StageTimer timer(&h, "stage", "test", 0, &trace);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum(), 0.0);
  EXPECT_EQ(trace.snapshot().emitted, 0u);
}

TEST(StageTimerTest, StopIsIdempotentAndNullSinksAreSafe) {
  MetricsRegistry registry;
  Histogram& h =
      registry.histogram("t", "help", Histogram::default_latency_buckets());
  TraceController trace;
  StageTimer timer(&h, "stage", "test", 0, &trace);
  timer.stop();
  const double first = h.sum();
  timer.stop();  // second stop: no new observation
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), first);
  StageTimer no_sinks(nullptr, "stage", "test", 0, &trace);
  no_sinks.stop();
  EXPECT_EQ(trace.snapshot().emitted, 0u);
}

TEST(StageTimerTest, SpanDurationEqualsTheHistogramSample) {
  MetricsRegistry registry;
  Histogram& h =
      registry.histogram("t", "help", Histogram::default_latency_buckets());
  TraceController trace;
  trace.set_enabled(true);
  {
    StageTimer timer(&h, "stage", "test", 42, &trace);
    volatile double sink = 0.0;
    for (int i = 0; i < 1000; ++i) sink = sink + 1.0;
  }
  const TraceController::Snapshot snap = trace.snapshot();
  ASSERT_EQ(snap.events.size(), 1u);
  const TraceEvent& span = snap.events[0];
  EXPECT_STREQ(span.name, "stage");
  EXPECT_STREQ(span.category, "test");
  EXPECT_EQ(span.arg, 42u);
  ASSERT_EQ(h.count(), 1u);
  // One clock reading pair feeds both sinks: the same duration, not two
  // measurements that merely agree to within noise.
  EXPECT_EQ(h.sum(), static_cast<double>(span.dur_ns) * 1e-9);
}

TEST(StageTimerTest, TracingAloneEmitsASpan) {
  TraceController trace;
  trace.set_enabled(true);
  { StageTimer timer(nullptr, "stage", "test", 0, &trace); }
  EXPECT_EQ(trace.snapshot().events.size(), 1u);
}

}  // namespace
}  // namespace scd::obs
