#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <utility>

#include "common/random.h"
#include "obs/pipeline_metrics.h"
#include "obs/trace.h"
#include "sketch/kary_sketch.h"

namespace scd::core {
namespace {

PipelineConfig base_config() {
  PipelineConfig config;
  config.interval_s = 10.0;
  config.h = 5;
  config.k = 4096;
  config.model.kind = forecast::ModelKind::kEwma;
  config.model.alpha = 0.5;
  config.threshold = 0.2;
  return config;
}

/// Steady background: 50 keys at constant value per interval, plus an
/// optional spike key in given intervals.
void feed_stream(ChangeDetectionPipeline& pipeline, std::size_t intervals,
                 std::uint64_t spike_key = 0, double spike_value = 0.0,
                 std::size_t spike_from = ~0u, std::size_t spike_to = 0) {
  scd::common::Rng rng(1);
  for (std::size_t t = 0; t < intervals; ++t) {
    const double start = static_cast<double>(t) * 10.0;
    for (std::uint64_t key = 1; key <= 50; ++key) {
      pipeline.add(key, 100.0 + rng.uniform(-5, 5), start + 1.0);
    }
    if (t >= spike_from && t <= spike_to) {
      pipeline.add(spike_key, spike_value, start + 2.0);
    }
  }
  pipeline.flush();
}

TEST(PipelineConfig, ValidateAcceptsDefaults) {
  EXPECT_NO_THROW(base_config().validate());
}

TEST(PipelineConfig, ValidateRejectsBadValues) {
  auto c = base_config();
  c.k = 1000;  // not a power of two
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = base_config();
  c.h = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = base_config();
  c.interval_s = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = base_config();
  c.key_sample_rate = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = base_config();
  c.model.alpha = 5.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = base_config();
  c.refit_every = 10;
  c.refit_window = 2;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Pipeline, ProducesOneReportPerInterval) {
  ChangeDetectionPipeline pipeline(base_config());
  feed_stream(pipeline, 8);
  ASSERT_EQ(pipeline.reports().size(), 8u);
  for (std::size_t t = 0; t < 8; ++t) {
    EXPECT_EQ(pipeline.reports()[t].index, t);
    EXPECT_EQ(pipeline.reports()[t].records, t == 0 ? 50u : 50u);
  }
}

TEST(Pipeline, WarmupIntervalHasNoDetection) {
  ChangeDetectionPipeline pipeline(base_config());
  feed_stream(pipeline, 4);
  EXPECT_FALSE(pipeline.reports()[0].detection_ran);
  EXPECT_TRUE(pipeline.reports()[1].detection_ran);
}

TEST(Pipeline, SteadyTrafficRaisesFewAlarms) {
  // An L2-relative threshold needs enough flows that the norm dwarfs any
  // single flow's noise (the paper's regime); use 500 steady keys.
  ChangeDetectionPipeline pipeline(base_config());
  scd::common::Rng rng(4);
  for (std::size_t t = 0; t < 10; ++t) {
    const double start = static_cast<double>(t) * 10.0;
    for (std::uint64_t key = 1; key <= 500; ++key) {
      pipeline.add(key, 100.0 + rng.uniform(-5, 5), start + 1.0);
    }
  }
  pipeline.flush();
  std::size_t alarms = 0;
  for (const auto& r : pipeline.reports()) alarms += r.alarms.size();
  // Per-key noise errors ~ +-7 vs threshold 0.2 * L2 ~ 0.2*sqrt(500*9) ~ 13.
  EXPECT_LT(alarms, 5u);
}

TEST(Pipeline, DetectsInjectedSpike) {
  ChangeDetectionPipeline pipeline(base_config());
  // Key 999 suddenly moves 5000 bytes in interval 6.
  feed_stream(pipeline, 10, 999, 5000.0, 6, 6);
  const auto& report = pipeline.reports()[6];
  ASSERT_TRUE(report.detection_ran);
  ASSERT_FALSE(report.alarms.empty());
  EXPECT_EQ(report.alarms[0].key, 999u);
  EXPECT_GT(report.alarms[0].error, 4000.0);
  EXPECT_GT(report.alarm_threshold, 0.0);
}

TEST(Pipeline, SpikeDisappearanceAlsoAlarms) {
  // The turnstile model detects negative changes: a key that was steady and
  // vanishes must produce a large negative forecast error.
  auto config = base_config();
  ChangeDetectionPipeline pipeline(config);
  scd::common::Rng rng(2);
  for (std::size_t t = 0; t < 10; ++t) {
    const double start = static_cast<double>(t) * 10.0;
    for (std::uint64_t key = 1; key <= 30; ++key) {
      pipeline.add(key, 100.0, start + 1.0);
    }
    if (t < 6) pipeline.add(777, 8000.0, start + 2.0);
    // Key 777 must still appear (tiny) so current-interval replay sees it.
    if (t >= 6) pipeline.add(777, 1.0, start + 2.0);
  }
  pipeline.flush();
  const auto& report = pipeline.reports()[6];
  ASSERT_TRUE(report.detection_ran);
  ASSERT_FALSE(report.alarms.empty());
  EXPECT_EQ(report.alarms[0].key, 777u);
  EXPECT_LT(report.alarms[0].error, -4000.0);
}

TEST(Pipeline, NextIntervalModeDetectsWithLag) {
  auto config = base_config();
  config.replay = KeyReplayMode::kNextInterval;
  ChangeDetectionPipeline pipeline(config);
  // Spike persists for two intervals so its key appears after the error
  // sketch is built.
  feed_stream(pipeline, 10, 999, 5000.0, 6, 7);
  ASSERT_EQ(pipeline.reports().size(), 10u);
  const auto& report = pipeline.reports()[6];
  ASSERT_TRUE(report.detection_ran);
  ASSERT_FALSE(report.alarms.empty());
  EXPECT_EQ(report.alarms[0].key, 999u);
}

TEST(Pipeline, EmptyGapIntervalsAreReported) {
  ChangeDetectionPipeline pipeline(base_config());
  pipeline.add(1, 100.0, 5.0);
  pipeline.add(1, 100.0, 45.0);  // jumps over intervals 1..3
  pipeline.flush();
  ASSERT_EQ(pipeline.reports().size(), 5u);
  EXPECT_EQ(pipeline.reports()[1].records, 0u);
  EXPECT_EQ(pipeline.reports()[2].records, 0u);
}

TEST(Pipeline, OutOfOrderRecordsAreClampedAndCounted) {
  // A regressing timestamp must not abort a live feed (one late NetFlow
  // export would kill the stream) nor mis-bin into a past interval: the
  // record is clamped into the open interval and counted.
  ChangeDetectionPipeline pipeline(base_config());
  pipeline.add(1, 1.0, 100.0);
  EXPECT_NO_THROW(pipeline.add(2, 1.0, 50.0));  // predates the interval start
  EXPECT_NO_THROW(pipeline.add(3, 1.0, 102.0));
  EXPECT_NO_THROW(pipeline.add(4, 1.0, 101.0));  // within the open interval
  pipeline.flush();
  EXPECT_EQ(pipeline.stats().out_of_order_records, 2u);
  ASSERT_EQ(pipeline.reports().size(), 1u);  // nothing opened a past interval
  EXPECT_EQ(pipeline.reports()[0].records, 4u);
  EXPECT_DOUBLE_EQ(pipeline.reports()[0].start_s, 100.0);
}

TEST(Pipeline, OutOfOrderClampUsesHighWaterMarkNotIntervalStart) {
  // The high-water mark spans interval closes: after time 25 advances the
  // stream into interval [20, 30), a record at time 12 is late even though
  // a fresh interval just opened.
  ChangeDetectionPipeline pipeline(base_config());
  pipeline.add(1, 1.0, 5.0);
  pipeline.add(1, 1.0, 25.0);
  pipeline.add(1, 1.0, 12.0);  // late: clamped into [20, 30), not [10, 20)
  pipeline.flush();
  EXPECT_EQ(pipeline.stats().out_of_order_records, 1u);
  ASSERT_EQ(pipeline.reports().size(), 3u);
  EXPECT_EQ(pipeline.reports()[2].records, 2u);
}

TEST(Pipeline, IngestIntervalMatchesAddPath) {
  // Feeding pre-aggregated intervals (registers + keys + count) must drive
  // the forecast/detect stages exactly as the record-by-record path: hash
  // families are deterministic in (seed, h), so an external sketch built
  // with the pipeline's parameters is register-compatible.
  const auto config = base_config();
  ChangeDetectionPipeline by_records(config);
  ChangeDetectionPipeline by_batches(config);
  const auto family = sketch::make_tabulation_family(config.seed, config.h);
  for (std::size_t t = 0; t < 8; ++t) {
    const double start = static_cast<double>(t) * config.interval_s;
    sketch::KarySketch external(family, config.k);
    IntervalBatch batch;
    for (std::uint64_t key = 1; key <= 50; ++key) {
      const double value =
          100.0 + static_cast<double>(common::mix64(key * 100 + t) % 11);
      by_records.add(key, value, start + 1.0);
      external.update(key, value);
      batch.keys.push_back(key);
      ++batch.records;
    }
    if (t == 5) {
      by_records.add(999, 5000.0, start + 2.0);
      external.update(999, 5000.0);
      batch.keys.push_back(999);
      ++batch.records;
    }
    batch.start_s = start;
    batch.len_s = config.interval_s;
    batch.registers.assign(external.registers().begin(),
                           external.registers().end());
    by_batches.ingest_interval(std::move(batch));
  }
  by_records.flush();
  by_batches.flush();
  ASSERT_EQ(by_batches.reports().size(), by_records.reports().size());
  for (std::size_t i = 0; i < by_records.reports().size(); ++i) {
    const auto& r = by_records.reports()[i];
    const auto& b = by_batches.reports()[i];
    EXPECT_EQ(b.records, r.records) << i;
    EXPECT_EQ(b.keys_checked, r.keys_checked) << i;
    EXPECT_DOUBLE_EQ(b.estimated_error_f2, r.estimated_error_f2) << i;
    ASSERT_EQ(b.alarms.size(), r.alarms.size()) << i;
    for (std::size_t a = 0; a < r.alarms.size(); ++a) {
      EXPECT_EQ(b.alarms[a].key, r.alarms[a].key);
      EXPECT_DOUBLE_EQ(b.alarms[a].error, r.alarms[a].error);
    }
  }
  EXPECT_EQ(by_batches.stats().records, by_records.stats().records);
}

TEST(Pipeline, StagedUpdateBlocksMatchPerRecordSketch) {
  // add() applies records to the observed sketch in staged blocks; with
  // 9000 records per interval a block drains mid-interval and another is
  // drained by the close. The reference sketch takes every record through
  // per-record UPDATE and enters via ingest_interval.
  const auto config = base_config();
  ChangeDetectionPipeline by_records(config);
  ChangeDetectionPipeline by_batches(config);
  const auto family = sketch::make_tabulation_family(config.seed, config.h);
  for (std::size_t t = 0; t < 5; ++t) {
    const double start = static_cast<double>(t) * config.interval_s;
    sketch::KarySketch external(family, config.k);
    IntervalBatch batch;
    for (std::uint64_t i = 0; i < 9000; ++i) {
      const std::uint64_t key = 1 + common::mix64(i * 7 + t) % 600;
      const double value =
          key == 77 && t == 3 ? 4000.0
                              : static_cast<double>(1 + i % 13);
      by_records.add(key, value, start + static_cast<double>(i) * 1e-3);
      external.update(key, value);
      batch.keys.push_back(key);
      ++batch.records;
    }
    std::sort(batch.keys.begin(), batch.keys.end());
    batch.keys.erase(std::unique(batch.keys.begin(), batch.keys.end()),
                     batch.keys.end());
    batch.start_s = start;
    batch.len_s = config.interval_s;
    batch.registers.assign(external.registers().begin(),
                           external.registers().end());
    by_batches.ingest_interval(std::move(batch));
  }
  by_records.flush();
  by_batches.flush();
  ASSERT_EQ(by_batches.reports().size(), by_records.reports().size());
  bool spike_found = false;
  for (std::size_t i = 0; i < by_records.reports().size(); ++i) {
    const auto& r = by_records.reports()[i];
    const auto& b = by_batches.reports()[i];
    EXPECT_EQ(b.records, r.records) << i;
    EXPECT_EQ(b.keys_checked, r.keys_checked) << i;
    EXPECT_DOUBLE_EQ(b.estimated_error_f2, r.estimated_error_f2) << i;
    ASSERT_EQ(b.alarms.size(), r.alarms.size()) << i;
    for (std::size_t a = 0; a < r.alarms.size(); ++a) {
      EXPECT_EQ(b.alarms[a].key, r.alarms[a].key);
      EXPECT_DOUBLE_EQ(b.alarms[a].error, r.alarms[a].error);
      if (r.alarms[a].key == 77) spike_found = true;
    }
  }
  EXPECT_TRUE(spike_found);
}

TEST(Pipeline, IngestIntervalValidatesItsBatch) {
  const auto config = base_config();
  ChangeDetectionPipeline pipeline(config);
  const auto valid = [&config] {
    IntervalBatch batch;
    batch.start_s = 0.0;
    batch.len_s = config.interval_s;
    batch.registers.assign(config.h * config.k, 0.0);
    return batch;
  };

  IntervalBatch wrong_size = valid();
  wrong_size.registers.resize(config.h * config.k - 1);
  EXPECT_THROW(pipeline.ingest_interval(std::move(wrong_size)),
               std::invalid_argument);

  IntervalBatch bad_len = valid();
  bad_len.len_s = 0.0;
  EXPECT_THROW(pipeline.ingest_interval(std::move(bad_len)),
               std::invalid_argument);

  EXPECT_NO_THROW(pipeline.ingest_interval(valid()));
  IntervalBatch regressed = valid();
  regressed.start_s = -20.0;  // before the interval just ingested
  EXPECT_THROW(pipeline.ingest_interval(std::move(regressed)),
               std::invalid_argument);

  // Mixing feeds inside one interval is not supported: an interval opened by
  // add() must be closed before a batch can be ingested.
  ChangeDetectionPipeline mixed(config);
  mixed.add(1, 1.0, 0.0);
  EXPECT_THROW(mixed.ingest_interval(valid()), std::invalid_argument);
}

TEST(Pipeline, CallbackSeesEveryReport) {
  ChangeDetectionPipeline pipeline(base_config());
  std::size_t seen = 0;
  pipeline.set_report_callback(
      [&seen](const IntervalReport& r) { seen = std::max(seen, r.index + 1); });
  feed_stream(pipeline, 5);
  EXPECT_EQ(seen, 5u);
}

TEST(Pipeline, MaxAlarmsCapRespected) {
  auto config = base_config();
  config.max_alarms_per_interval = 3;
  config.threshold = 0.0;  // flag everything
  ChangeDetectionPipeline pipeline(config);
  feed_stream(pipeline, 4);
  for (const auto& r : pipeline.reports()) {
    EXPECT_LE(r.alarms.size(), 3u);
  }
}

TEST(Pipeline, SampledReplayChecksFewerKeys) {
  auto full = base_config();
  auto sampled = base_config();
  sampled.key_sample_rate = 0.2;
  ChangeDetectionPipeline p_full(full), p_sampled(sampled);
  feed_stream(p_full, 6);
  feed_stream(p_sampled, 6);
  const auto& rf = p_full.reports()[3];
  const auto& rs = p_sampled.reports()[3];
  EXPECT_EQ(rf.keys_checked, 50u);
  EXPECT_LT(rs.keys_checked, 30u);
  EXPECT_GT(rs.keys_checked, 1u);
}

TEST(Pipeline, AddRecordUsesConfiguredExtraction) {
  auto config = base_config();
  config.key_kind = traffic::KeyKind::kDstIp;
  config.update_kind = traffic::UpdateKind::kBytes;
  ChangeDetectionPipeline pipeline(config);
  traffic::FlowRecord r;
  r.timestamp_us = 1000000;
  r.dst_ip = 42;
  r.bytes = 500;
  pipeline.add_record(r);
  pipeline.flush();
  ASSERT_EQ(pipeline.reports().size(), 1u);
  EXPECT_EQ(pipeline.reports()[0].records, 1u);
}

TEST(Pipeline, SrcDstPairKeysUseWideFamily) {
  auto config = base_config();
  config.key_kind = traffic::KeyKind::kSrcDstPair;
  ChangeDetectionPipeline pipeline(config);
  traffic::FlowRecord r;
  r.timestamp_us = 0;
  r.src_ip = 0xffffffff;
  r.dst_ip = 0xeeeeeeee;
  r.bytes = 100;
  EXPECT_NO_THROW(pipeline.add_record(r));
  pipeline.flush();
  EXPECT_EQ(pipeline.reports().size(), 1u);
}

TEST(Pipeline, OnlineRefitUpdatesModelParameters) {
  auto config = base_config();
  config.refit_every = 8;
  config.refit_window = 8;
  config.model.alpha = 0.05;  // poor fit for the jumpy series below
  ChangeDetectionPipeline pipeline(config);
  scd::common::Rng rng(3);
  // A strongly level-shifting series: best EWMA alpha is near 1.
  double level = 100.0;
  for (std::size_t t = 0; t < 20; ++t) {
    if (t % 3 == 0) level = rng.uniform(50, 5000);
    for (std::uint64_t key = 1; key <= 20; ++key) {
      pipeline.add(key, level, static_cast<double>(t) * 10.0 + 1.0);
    }
  }
  pipeline.flush();
  EXPECT_NE(pipeline.active_model().alpha, 0.05);
}

TEST(Pipeline, FlushIsIdempotent) {
  // A second flush must be a no-op: the first one already closed the open
  // interval, and no record has opened a new one since.
  ChangeDetectionPipeline pipeline(base_config());
  feed_stream(pipeline, 3);  // feed_stream already flushes
  const std::size_t n = pipeline.reports().size();
  pipeline.flush();
  EXPECT_EQ(pipeline.reports().size(), n);
}

TEST(Pipeline, RandomizedIntervalsVaryLengths) {
  auto config = base_config();
  config.randomize_intervals = true;
  ChangeDetectionPipeline pipeline(config);
  for (int i = 0; i < 400; ++i) {
    pipeline.add(1, 100.0, static_cast<double>(i));
  }
  pipeline.flush();
  const auto& reports = pipeline.reports();
  ASSERT_GE(reports.size(), 5u);
  // Lengths differ across intervals and stay within the clamp band.
  bool some_differ = false;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const double len = reports[i].end_s - reports[i].start_s;
    EXPECT_GE(len, 0.25 * config.interval_s - 1e-9);
    EXPECT_LE(len, 4.0 * config.interval_s + 1e-9);
    if (i > 0 && std::abs(len - (reports[0].end_s - reports[0].start_s)) >
                     1e-9) {
      some_differ = true;
    }
  }
  EXPECT_TRUE(some_differ);
  // Intervals tile the timeline with no gaps.
  for (std::size_t i = 1; i < reports.size(); ++i) {
    EXPECT_DOUBLE_EQ(reports[i].start_s, reports[i - 1].end_s);
  }
}

TEST(Pipeline, RandomizedIntervalsStillDetectSpikes) {
  auto config = base_config();
  config.randomize_intervals = true;
  config.threshold = 0.3;
  ChangeDetectionPipeline pipeline(config);
  // Per-second steady stream so every random-length interval sees volume
  // proportional to its length (normalization makes them comparable).
  for (int s = 0; s < 300; ++s) {
    for (std::uint64_t key = 1; key <= 30; ++key) {
      pipeline.add(key, 10.0, static_cast<double>(s));
    }
    if (s >= 200 && s < 230) pipeline.add(999, 3000.0, s + 0.5);
  }
  pipeline.flush();
  bool flagged = false;
  for (const auto& report : pipeline.reports()) {
    for (const auto& alarm : report.alarms) {
      if (alarm.key == 999) flagged = true;
    }
  }
  EXPECT_TRUE(flagged);
}

TEST(Pipeline, RandomizedIntervalsAreDeterministicPerSeed) {
  auto config = base_config();
  config.randomize_intervals = true;
  ChangeDetectionPipeline p1(config), p2(config);
  for (int i = 0; i < 200; ++i) {
    p1.add(1, 50.0, static_cast<double>(i));
    p2.add(1, 50.0, static_cast<double>(i));
  }
  p1.flush();
  p2.flush();
  ASSERT_EQ(p1.reports().size(), p2.reports().size());
  for (std::size_t i = 0; i < p1.reports().size(); ++i) {
    EXPECT_DOUBLE_EQ(p1.reports()[i].end_s, p2.reports()[i].end_s);
  }
}

TEST(Pipeline, TopNCriterionAlwaysReportsNKeys) {
  auto config = base_config();
  config.criterion = DetectionCriterion::kTopN;
  config.max_alarms_per_interval = 3;
  ChangeDetectionPipeline pipeline(config);
  feed_stream(pipeline, 6);
  for (const auto& report : pipeline.reports()) {
    if (!report.detection_ran) continue;
    EXPECT_EQ(report.alarms.size(), 3u) << report.index;
    // Alarms come ranked by |error| descending.
    for (std::size_t i = 1; i < report.alarms.size(); ++i) {
      EXPECT_GE(std::abs(report.alarms[i - 1].error),
                std::abs(report.alarms[i].error));
    }
  }
}

TEST(Pipeline, SmoothedBaselinePreventsSelfMasking) {
  // A single enormous change inflates the current interval's error L2 so
  // much that, at a high threshold T, it can fail its own T * L2 cut.
  // Anchoring the threshold to the smoothed history must flag it.
  auto current = base_config();
  current.threshold = 0.95;
  auto smoothed = current;
  smoothed.baseline = ThresholdBaseline::kSmoothedF2;

  // Two keys change at once so neither carries ~100% of the interval's L2:
  // each holds ~1/sqrt(2) ~ 0.71 of it, below the 0.95 cut.
  const auto feed = [](ChangeDetectionPipeline& pipeline) {
    scd::common::Rng rng(5);
    for (std::size_t t = 0; t < 8; ++t) {
      const double start = static_cast<double>(t) * 10.0;
      for (std::uint64_t key = 1; key <= 100; ++key) {
        pipeline.add(key, 100.0 + rng.uniform(-5, 5), start + 1.0);
      }
      if (t == 6) {
        pipeline.add(991, 60000.0, start + 2.0);
        pipeline.add(992, 60000.0, start + 2.0);
      }
    }
    pipeline.flush();
  };
  ChangeDetectionPipeline p_current(current), p_smoothed(smoothed);
  feed(p_current);
  feed(p_smoothed);
  const auto alarms_at = [](const ChangeDetectionPipeline& p, std::size_t t) {
    return p.reports()[t].alarms.size();
  };
  EXPECT_EQ(alarms_at(p_current, 6), 0u);   // self-masked
  EXPECT_GE(alarms_at(p_smoothed, 6), 2u);  // history-anchored: both flagged
}

TEST(Pipeline, BaselineAlphaValidated) {
  auto config = base_config();
  config.baseline_alpha = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.baseline_alpha = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(Pipeline, RejectsNonFiniteUpdates) {
  ChangeDetectionPipeline pipeline(base_config());
  EXPECT_THROW(pipeline.add(1, std::nan(""), 0.0), std::invalid_argument);
  EXPECT_THROW(pipeline.add(1, std::numeric_limits<double>::infinity(), 0.0),
               std::invalid_argument);
  EXPECT_NO_THROW(pipeline.add(1, -5.0, 0.0));  // negative is fine (turnstile)
}

TEST(Pipeline, HysteresisSuppressesOneShotSpikes) {
  auto config = base_config();
  config.min_consecutive = 2;
  ChangeDetectionPipeline pipeline(config);
  // Key 999 spikes once (its decaying EWMA tail then falls below the
  // threshold set by 888's larger concurrent change); key 888 spikes in two
  // consecutive intervals.
  scd::common::Rng rng(9);
  for (std::size_t t = 0; t < 10; ++t) {
    const double start = static_cast<double>(t) * 10.0;
    for (std::uint64_t key = 1; key <= 50; ++key) {
      pipeline.add(key, 100.0 + rng.uniform(-5, 5), start + 1.0);
    }
    if (t == 5) pipeline.add(999, 1500.0, start + 2.0);
    if (t == 6 || t == 7) pipeline.add(888, 5000.0, start + 2.0);
  }
  pipeline.flush();
  bool saw_999 = false, saw_888 = false;
  std::size_t interval_888 = 0;
  for (const auto& report : pipeline.reports()) {
    for (const auto& alarm : report.alarms) {
      if (alarm.key == 999) saw_999 = true;
      if (alarm.key == 888) {
        saw_888 = true;
        interval_888 = report.index;
      }
    }
  }
  EXPECT_FALSE(saw_999);  // single-interval spike suppressed
  EXPECT_TRUE(saw_888);   // two consecutive trips reported
  EXPECT_EQ(interval_888, 7u);
}

TEST(Pipeline, HysteresisValidation) {
  auto config = base_config();
  config.min_consecutive = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(Pipeline, StatsTrackLifetimeCounters) {
  auto config = base_config();
  config.refit_every = 4;
  config.refit_window = 4;
  ChangeDetectionPipeline pipeline(config);
  feed_stream(pipeline, 10, 999, 5000.0, 6, 6);
  const auto stats = pipeline.stats();
  EXPECT_EQ(stats.records, 10u * 50u + 1u);
  EXPECT_EQ(stats.intervals_closed, 10u);
  EXPECT_GE(stats.alarms, 1u);
  EXPECT_GE(stats.refits, 1u);  // fired at intervals 4 and 8
  EXPECT_EQ(stats.sketch_bytes, config.h * config.k * sizeof(double));
}

TEST(Pipeline, StatsStartAtZero) {
  ChangeDetectionPipeline pipeline(base_config());
  const auto stats = pipeline.stats();
  EXPECT_EQ(stats.records, 0u);
  EXPECT_EQ(stats.intervals_closed, 0u);
  EXPECT_EQ(stats.alarms, 0u);
  EXPECT_EQ(stats.refits, 0u);
}

TEST(Pipeline, NextIntervalModeComposesWithTopNCriterion) {
  auto config = base_config();
  config.replay = KeyReplayMode::kNextInterval;
  config.criterion = DetectionCriterion::kTopN;
  config.max_alarms_per_interval = 2;
  ChangeDetectionPipeline pipeline(config);
  feed_stream(pipeline, 8, 999, 5000.0, 5, 7);
  bool saw_spike = false;
  for (const auto& report : pipeline.reports()) {
    if (report.detection_ran && report.keys_checked > 0) {
      EXPECT_LE(report.alarms.size(), 2u);
      EXPECT_GE(report.alarms.size(), 1u);  // top-N always reports
    }
    for (const auto& alarm : report.alarms) {
      if (alarm.key == 999) saw_spike = true;
    }
  }
  EXPECT_TRUE(saw_spike);
}

TEST(Pipeline, SmoothedBaselineComposesWithRandomizedIntervals) {
  auto config = base_config();
  config.baseline = ThresholdBaseline::kSmoothedF2;
  config.randomize_intervals = true;
  ChangeDetectionPipeline pipeline(config);
  scd::common::Rng rng(11);
  for (int s = 0; s < 200; ++s) {
    for (std::uint64_t key = 1; key <= 20; ++key) {
      pipeline.add(key, 50.0 + rng.uniform(-2, 2), static_cast<double>(s));
    }
  }
  pipeline.flush();
  EXPECT_GE(pipeline.reports().size(), 5u);  // runs without issue
}

/// Count and sum of one stage histogram in the process-wide bundle every
/// metrics-on pipeline feeds. Other tests may share the process, so tests
/// assert on what one run adds.
struct StageSample {
  std::uint64_t count = 0;
  double sum = 0.0;
};

using StageSamples = std::array<StageSample, obs::kStageNames.size()>;

StageSamples sample_stages() {
  StageSamples out;
  const obs::PipelineInstruments& instruments =
      obs::PipelineInstruments::global();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = {instruments.stage_seconds[i]->count(),
              instruments.stage_seconds[i]->sum()};
  }
  return out;
}

StageSample added(const StageSamples& before, const StageSamples& after,
                  obs::Stage stage) {
  const auto i = static_cast<std::size_t>(stage);
  return {after[i].count - before[i].count, after[i].sum - before[i].sum};
}

TEST(Pipeline, StatsCarryStageBudget) {
  const StageSamples before = sample_stages();
  ChangeDetectionPipeline pipeline(base_config());
  feed_stream(pipeline, 6);
  const StageSamples after = sample_stages();
  const auto stage = [&](obs::Stage s) { return added(before, after, s); };
  // Each interval's 50 records are one staged block, drained at its close.
  EXPECT_EQ(stage(obs::Stage::kSketchUpdate).count, 6u);
  EXPECT_GT(stage(obs::Stage::kSketchUpdate).sum, 0.0);
  EXPECT_EQ(stage(obs::Stage::kIntervalClose).count, 6u);
  EXPECT_GT(stage(obs::Stage::kIntervalClose).sum, 0.0);
  EXPECT_EQ(stage(obs::Stage::kForecast).count, 6u);
  EXPECT_GT(stage(obs::Stage::kForecast).sum, 0.0);
  // Detection runs on every post-warm-up interval.
  EXPECT_EQ(stage(obs::Stage::kEstimateF2).count, 5u);
  EXPECT_GT(stage(obs::Stage::kEstimateF2).sum, 0.0);
  EXPECT_EQ(stage(obs::Stage::kKeyReplay).count, 5u);
  EXPECT_GT(stage(obs::Stage::kKeyReplay).sum, 0.0);
  EXPECT_EQ(stage(obs::Stage::kRefit).count, 0u);  // no re-fitting configured
  // Sub-stages run inside the close.
  EXPECT_LE(stage(obs::Stage::kForecast).sum,
            stage(obs::Stage::kIntervalClose).sum);
  // Detection ran on every post-warm-up interval over 50 keys each.
  EXPECT_EQ(pipeline.stats().keys_replayed, 5u * 50u);
}

TEST(Pipeline, MetricsDisabledSkipsTimingButKeepsCounters) {
  auto config = base_config();
  config.metrics = false;
  const StageSamples before = sample_stages();
  ChangeDetectionPipeline pipeline(config);
  feed_stream(pipeline, 4);
  const StageSamples after = sample_stages();
  for (std::size_t i = 0; i < before.size(); ++i) {
    const StageSample d = added(before, after, static_cast<obs::Stage>(i));
    EXPECT_EQ(d.count, 0u) << obs::kStageNames[i];  // timing is metrics-gated
    EXPECT_EQ(d.sum, 0.0) << obs::kStageNames[i];
  }
  const auto stats = pipeline.stats();
  EXPECT_EQ(stats.records, 4u * 50u);
  EXPECT_EQ(stats.intervals_closed, 4u);
}

TEST(Pipeline, StageSpansCarryTheHistogramSamples) {
  // With tracing on, each stage's span and histogram sample come from one
  // measurement: per stage, as many spans as samples, and the same total.
  auto config = base_config();
  config.refit_every = 4;
  config.refit_window = 8;
  obs::TraceController& trace = obs::TraceController::global();
  const std::size_t events_before = trace.snapshot().events.size();
  const StageSamples before = sample_stages();
  trace.set_enabled(true);
  {
    ChangeDetectionPipeline pipeline(config);
    feed_stream(pipeline, 10);
  }
  trace.set_enabled(false);
  const StageSamples after = sample_stages();
  const obs::TraceController::Snapshot snap = trace.snapshot();
  ASSERT_EQ(snap.dropped, 0u);
  for (std::size_t i = 0; i < before.size(); ++i) {
    std::uint64_t spans = 0;
    std::uint64_t dur_ns = 0;
    for (std::size_t e = events_before; e < snap.events.size(); ++e) {
      const obs::TraceEvent& event = snap.events[e];
      if (std::string_view(event.category) != "core" ||
          std::string_view(event.name) != obs::kStageNames[i]) {
        continue;
      }
      ++spans;
      dur_ns += event.dur_ns;
    }
    const StageSample d = added(before, after, static_cast<obs::Stage>(i));
    EXPECT_GT(spans, 0u) << obs::kStageNames[i];
    EXPECT_EQ(spans, d.count) << obs::kStageNames[i];
    EXPECT_NEAR(static_cast<double>(dur_ns) * 1e-9, d.sum, 1e-12)
        << obs::kStageNames[i];
  }
}

TEST(Pipeline, StatsCountHysteresisSuppressions) {
  auto config = base_config();
  config.min_consecutive = 2;
  ChangeDetectionPipeline pipeline(config);
  // One-shot spike: flagged once, then suppressed by hysteresis.
  feed_stream(pipeline, 10, 999, 5000.0, 6, 6);
  EXPECT_GE(pipeline.stats().hysteresis_suppressed, 1u);
}

TEST(Pipeline, IntervalsClosedMatchesReportsAfterFlush) {
  // The flush() invariant: one report per closed interval, in both replay
  // modes and with a trailing double flush.
  for (const KeyReplayMode mode :
       {KeyReplayMode::kCurrentInterval, KeyReplayMode::kNextInterval}) {
    auto config = base_config();
    config.replay = mode;
    ChangeDetectionPipeline pipeline(config);
    feed_stream(pipeline, 7);
    EXPECT_EQ(pipeline.stats().intervals_closed, pipeline.reports().size());
    pipeline.flush();
    EXPECT_EQ(pipeline.stats().intervals_closed, pipeline.reports().size());
  }
}

TEST(Pipeline, RefitTimeIsAccounted) {
  auto config = base_config();
  config.refit_every = 4;
  config.refit_window = 8;
  const StageSamples before = sample_stages();
  ChangeDetectionPipeline pipeline(config);
  feed_stream(pipeline, 10);
  const StageSample refit =
      added(before, sample_stages(), obs::Stage::kRefit);
  const auto stats = pipeline.stats();
  ASSERT_GE(stats.refits, 1u);
  EXPECT_EQ(refit.count, stats.refits);
  EXPECT_GT(refit.sum, 0.0);
}

TEST(Pipeline, MoveSemantics) {
  ChangeDetectionPipeline a(base_config());
  a.add(1, 1.0, 0.0);
  ChangeDetectionPipeline b = std::move(a);
  b.add(1, 2.0, 1.0);
  b.flush();
  EXPECT_EQ(b.reports().size(), 1u);
}

}  // namespace
}  // namespace scd::core
