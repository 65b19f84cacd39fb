// The checkpoint subsystem's central promise, exercised as a property:
//
//   For every checkpoint cadence k and every crash point, killing the run
//   and restoring from the newest checkpoint yields an alarm/report stream
//   bit-identical to the uninterrupted run from the restore point onward.
//
// Verified for the serial pipeline and the W=4 sharded front-end, over a
// deterministic synthetic stream with spikes (so real alarms, thresholds
// and forecast state are part of the comparison, not just counters). The
// whole suite is rerun with SCD_SIMD=scalar by the ctest harness, so both
// dispatch decisions must reproduce their own runs exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "common/random.h"
#include "core/pipeline.h"
#include "ingest/parallel_pipeline.h"
#include "support/temp_path.h"

namespace scd::checkpoint {
namespace {

struct Item {
  std::uint64_t key;
  double update;
  double time_s;
};

/// 12 intervals of 10 s, 60 keys with per-key deterministic noise, spikes
/// on keys 7 and 21 in intervals 5 and 9.
std::vector<Item> make_stream() {
  std::vector<Item> items;
  common::Rng rng(0xfeedface);
  for (int interval = 0; interval < 12; ++interval) {
    const double base = interval * 10.0;
    for (int rep = 0; rep < 3; ++rep) {
      for (std::uint64_t key = 0; key < 60; ++key) {
        items.push_back({key, 200.0 + rng.uniform(-50.0, 50.0),
                         base + 1.0 + rep * 3.0});
      }
    }
    if (interval == 5) items.push_back({7, 90000.0, base + 8.0});
    if (interval == 9) items.push_back({21, 90000.0, base + 8.5});
  }
  return items;
}

core::PipelineConfig property_config() {
  core::PipelineConfig config;
  config.interval_s = 10.0;
  config.h = 4;
  config.k = 256;
  config.seed = 0x5eed;
  config.threshold = 0.2;
  config.model.kind = forecast::ModelKind::kEwma;
  config.model.alpha = 0.6;
  config.metrics = false;
  return config;
}

std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path dir = test_support::unique_temp_path(name);
  std::filesystem::remove_all(dir);
  return dir;
}

void expect_reports_bit_identical(
    const std::vector<core::IntervalReport>& resumed,
    const std::vector<core::IntervalReport>& reference,
    const std::string& label) {
  ASSERT_FALSE(resumed.empty()) << label;
  for (const core::IntervalReport& report : resumed) {
    ASSERT_LT(report.index, reference.size()) << label;
    const core::IntervalReport& expected = reference[report.index];
    SCOPED_TRACE(label + " interval " + std::to_string(report.index));
    ASSERT_EQ(report.index, expected.index);
    EXPECT_EQ(report.start_s, expected.start_s);
    EXPECT_EQ(report.end_s, expected.end_s);
    EXPECT_EQ(report.records, expected.records);
    EXPECT_EQ(report.detection_ran, expected.detection_ran);
    EXPECT_EQ(report.keys_checked, expected.keys_checked);
    // Bit-identical, not approximately equal: the doubles must match.
    EXPECT_EQ(report.estimated_error_f2, expected.estimated_error_f2);
    EXPECT_EQ(report.alarm_threshold, expected.alarm_threshold);
    ASSERT_EQ(report.alarms.size(), expected.alarms.size());
    for (std::size_t i = 0; i < report.alarms.size(); ++i) {
      EXPECT_EQ(report.alarms[i].key, expected.alarms[i].key);
      EXPECT_EQ(report.alarms[i].error, expected.alarms[i].error);
      EXPECT_EQ(report.alarms[i].threshold_abs,
                expected.alarms[i].threshold_abs);
    }
  }
}

/// The reference stream has spikes; make sure the property is not vacuous.
void expect_some_alarms(const std::vector<core::IntervalReport>& reports) {
  std::size_t alarms = 0;
  for (const auto& r : reports) alarms += r.alarms.size();
  ASSERT_GT(alarms, 0u) << "stream produced no alarms; property is vacuous";
}

TEST(CheckpointProperty, SerialKillRestoreBitIdentical) {
  const std::vector<Item> stream = make_stream();
  const core::PipelineConfig config = property_config();

  core::ChangeDetectionPipeline reference(config);
  for (const Item& item : stream) {
    reference.add(item.key, item.update, item.time_s);
  }
  reference.flush();
  expect_some_alarms(reference.reports());

  for (const std::size_t every : {1u, 2u, 3u}) {
    for (const double crash_s : {34.0, 67.0, 95.0, 118.0}) {
      const auto dir =
          fresh_dir("prop_serial_" + std::to_string(every) + "_" +
                    std::to_string(static_cast<int>(crash_s)));
      {
        core::ChangeDetectionPipeline pipeline(config);
        CheckpointWriterOptions options;
        options.directory = dir;
        options.every = every;
        options.metrics = false;
        CheckpointWriter writer(options, config);
        writer.attach(pipeline);
        for (const Item& item : stream) {
          if (item.time_s >= crash_s) break;
          pipeline.add(item.key, item.update, item.time_s);
        }
        // Killed here: no flush, no final checkpoint.
      }
      ASSERT_FALSE(list_checkpoints(dir).empty());

      core::ChangeDetectionPipeline resumed(config);
      const RecoverResult result = recover(dir, resumed);
      ASSERT_TRUE(result.restored);
      const double resume_s = resumed.position().next_interval_start_s;
      for (const Item& item : stream) {
        if (item.time_s < resume_s) continue;
        resumed.add(item.key, item.update, item.time_s);
      }
      resumed.flush();
      expect_reports_bit_identical(
          resumed.reports(), reference.reports(),
          "serial every=" + std::to_string(every) +
              " crash=" + std::to_string(crash_s));
    }
  }
}

TEST(CheckpointProperty, ShardedKillRestoreBitIdentical) {
  const std::vector<Item> stream = make_stream();
  const core::PipelineConfig config = property_config();
  ingest::ParallelConfig parallel;
  parallel.workers = 4;
  parallel.batch_size = 64;

  // Reference: an uninterrupted run of the SAME front-end. Sharded merges
  // sum shard-partial registers, so sharded-vs-serial holds to a few ULP
  // (see tests/ingest/parallel_pipeline_test.cpp), while sharded runs with
  // the same worker count are bit-exact among themselves — and that is the
  // bar a restore must clear.
  ingest::ParallelPipeline reference(config, parallel);
  for (const Item& item : stream) {
    reference.add(item.key, item.update, item.time_s);
  }
  reference.flush();
  expect_some_alarms(reference.reports());

  for (const std::size_t every : {1u, 2u}) {
    for (const double crash_s : {47.0, 98.0}) {
      const auto dir =
          fresh_dir("prop_shard_" + std::to_string(every) + "_" +
                    std::to_string(static_cast<int>(crash_s)));
      {
        ingest::ParallelPipeline pipeline(config, parallel);
        CheckpointWriterOptions options;
        options.directory = dir;
        options.every = every;
        options.metrics = false;
        CheckpointWriter writer(options, config);
        writer.attach(pipeline);
        for (const Item& item : stream) {
          if (item.time_s >= crash_s) break;
          pipeline.add(item.key, item.update, item.time_s);
        }
        // Killed here (worker threads wound down by the destructor; the
        // un-checkpointed tail is lost, as after SIGKILL).
      }
      ASSERT_FALSE(list_checkpoints(dir).empty());

      ingest::ParallelPipeline resumed(config, parallel);
      const RecoverResult result = recover(dir, resumed);
      ASSERT_TRUE(result.restored);
      const double resume_s = resumed.position().next_interval_start_s;
      for (const Item& item : stream) {
        if (item.time_s < resume_s) continue;
        resumed.add(item.key, item.update, item.time_s);
      }
      resumed.flush();
      expect_reports_bit_identical(
          resumed.reports(), reference.reports(),
          "sharded every=" + std::to_string(every) +
              " crash=" + std::to_string(crash_s));
    }
  }
}

/// Restoring a serial snapshot into the sharded front-end and vice versa is
/// rejected, but serial state restored serially after being written by the
/// parallel writer's cadence still matches — cross-checked above. Here:
/// checkpoint-every-k writes exactly floor(intervals / k) files (retention
/// aside), i.e. cadence is honored.
TEST(CheckpointProperty, CadenceWritesExpectedCheckpoints) {
  const std::vector<Item> stream = make_stream();
  const core::PipelineConfig config = property_config();
  for (const std::size_t every : {1u, 3u, 5u}) {
    const auto dir = fresh_dir("prop_cadence_" + std::to_string(every));
    std::size_t closes = 0;
    core::ChangeDetectionPipeline pipeline(config);
    CheckpointWriterOptions options;
    options.directory = dir;
    options.every = every;
    options.keep = 1000;  // retention off for this count
    options.metrics = false;
    CheckpointWriter writer(options, config);
    writer.attach(pipeline);
    pipeline.set_report_callback(
        [&closes](const core::IntervalReport&) { ++closes; });
    for (const Item& item : stream) {
      pipeline.add(item.key, item.update, item.time_s);
    }
    pipeline.flush();
    EXPECT_EQ(list_checkpoints(dir).size(), closes / every)
        << "every=" << every;
  }
}

}  // namespace
}  // namespace scd::checkpoint
