// Basic checkpoint/restore mechanics: file naming and listing, cadence,
// retention, fingerprint sensitivity, boundary-only save_state, a
// write → recover round trip for both pipeline flavours, and restores
// across them (both snapshot the same engine state).
#include "checkpoint/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/little_endian.h"
#include "core/pipeline.h"
#include "ingest/parallel_pipeline.h"
#include "support/temp_path.h"

namespace scd::checkpoint {
namespace {

core::PipelineConfig small_config() {
  core::PipelineConfig config;
  config.interval_s = 10.0;
  config.h = 3;
  config.k = 64;
  config.threshold = 0.05;
  config.model.kind = forecast::ModelKind::kEwma;
  config.model.alpha = 0.5;
  config.metrics = false;
  return config;
}

std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path dir = test_support::unique_temp_path(name);
  std::filesystem::remove_all(dir);
  return dir;
}

/// Deterministic stream: 40 steady keys, key 7 spikes in interval 5.
template <typename Pipeline>
void feed_stream(Pipeline& pipeline, double from_s, double to_s) {
  for (double t = 1.0; t < 120.0; t += 10.0) {
    if (t < from_s || t >= to_s) continue;
    for (std::uint64_t key = 0; key < 40; ++key) {
      pipeline.add(key, 100.0 + static_cast<double>(key % 7), t);
    }
    if (t > 50.0 && t < 60.0) pipeline.add(7, 50000.0, t + 1.0);
  }
}

TEST(CheckpointFilename, ZeroPaddedAndSorted) {
  EXPECT_EQ(checkpoint_filename(0), "ckpt-00000000000000000000.scdc");
  EXPECT_EQ(checkpoint_filename(42), "ckpt-00000000000000000042.scdc");
  EXPECT_LT(checkpoint_filename(9), checkpoint_filename(10));
  EXPECT_LT(checkpoint_filename(99), checkpoint_filename(100));
}

TEST(CheckpointList, NewestFirstIgnoringStrays) {
  const auto dir = fresh_dir("ckpt_list");
  std::filesystem::create_directories(dir);
  for (const std::uint64_t i : {3u, 12u, 7u}) {
    std::ofstream(dir / checkpoint_filename(i)) << "x";
  }
  std::ofstream(dir / "ckpt-00000000000000000099.scdc.tmp") << "x";
  std::ofstream(dir / "notes.txt") << "x";
  const auto files = list_checkpoints(dir);
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0].filename(), checkpoint_filename(12));
  EXPECT_EQ(files[1].filename(), checkpoint_filename(7));
  EXPECT_EQ(files[2].filename(), checkpoint_filename(3));
}

TEST(CheckpointList, MissingDirectoryIsEmpty) {
  EXPECT_TRUE(list_checkpoints(fresh_dir("ckpt_nodir")).empty());
}

TEST(CheckpointWriterTest, DueFollowsCadence) {
  CheckpointWriterOptions options;
  options.directory = fresh_dir("ckpt_due");
  options.every = 3;
  options.metrics = false;
  const CheckpointWriter writer(options, small_config());
  EXPECT_FALSE(writer.due(0));
  EXPECT_FALSE(writer.due(1));
  EXPECT_TRUE(writer.due(3));
  EXPECT_FALSE(writer.due(4));
  EXPECT_TRUE(writer.due(6));
}

TEST(CheckpointWriterTest, RejectsZeroCadence) {
  CheckpointWriterOptions options;
  options.directory = fresh_dir("ckpt_zero");
  options.every = 0;
  EXPECT_THROW(CheckpointWriter(options, small_config()),
               std::invalid_argument);
}

TEST(CheckpointWriterTest, RetentionKeepsNewest) {
  CheckpointWriterOptions options;
  options.directory = fresh_dir("ckpt_keep");
  options.keep = 2;
  options.metrics = false;
  CheckpointWriter writer(options, small_config());
  const std::vector<std::uint8_t> state{1, 2, 3};
  for (std::uint64_t i = 1; i <= 5; ++i) {
    writer.write(i, state);
  }
  const auto files = list_checkpoints(options.directory);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].filename(), checkpoint_filename(5));
  EXPECT_EQ(files[1].filename(), checkpoint_filename(4));
}

TEST(ConfigFingerprint, SensitiveToStateAffectingFields) {
  const core::PipelineConfig base = small_config();
  const std::uint64_t fp = checkpoint::config_fingerprint(base);
  core::PipelineConfig changed = base;
  changed.threshold = 0.06;
  EXPECT_NE(checkpoint::config_fingerprint(changed), fp);
  changed = base;
  changed.k = 128;
  EXPECT_NE(checkpoint::config_fingerprint(changed), fp);
  changed = base;
  changed.model.alpha = 0.25;
  EXPECT_NE(checkpoint::config_fingerprint(changed), fp);
  changed = base;
  changed.seed = 99;
  EXPECT_NE(checkpoint::config_fingerprint(changed), fp);
}

TEST(ConfigFingerprint, IgnoresMetricsFlag) {
  core::PipelineConfig a = small_config();
  core::PipelineConfig b = small_config();
  a.metrics = false;
  b.metrics = true;
  EXPECT_EQ(checkpoint::config_fingerprint(a), checkpoint::config_fingerprint(b));
}

TEST(SaveState, ThrowsMidInterval) {
  core::ChangeDetectionPipeline pipeline(small_config());
  EXPECT_NO_THROW((void)pipeline.save_state());  // before the first record
  pipeline.add(1, 100.0, 1.0);
  EXPECT_THROW((void)pipeline.save_state(), std::logic_error);
}

/// save_state() bytes at the close of interval `at`, from a pipeline of
/// type `Pipeline` fed the deterministic stream plus one late record. An
/// anchor record at 0.5 s moves the interval grid off the record times, so
/// the high-water mark at each close is not the interval's end. Metrics are
/// on, so every part of the state that could carry a measurement is
/// exercised.
template <typename Pipeline, typename... Extra>
std::vector<std::uint8_t> state_at_close(std::size_t at,
                                         core::KeyReplayMode replay,
                                         Extra... extra) {
  core::PipelineConfig config = small_config();
  config.replay = replay;
  config.metrics = true;
  Pipeline pipeline(config, extra...);
  std::vector<std::uint8_t> state;
  pipeline.set_interval_close_callback([&](std::size_t closed) {
    if (closed == at) state = pipeline.save_state();
  });
  pipeline.add(0, 100.0, 0.5);
  for (double t = 1.0; t < 120.0; t += 10.0) {
    for (std::uint64_t key = 0; key < 40; ++key) {
      pipeline.add(key, 100.0 + static_cast<double>(key % 7), t);
    }
    if (t > 50.0 && t < 60.0) pipeline.add(7, 50000.0, t + 1.0);
    if (t > 30.0 && t < 40.0) pipeline.add(3, 100.0, t - 6.0);  // late
  }
  pipeline.flush();
  return state;
}

TEST(SaveState, IdenticalRunsWriteIdenticalBytes) {
  // No wall-clock measurement may leak into engine state: two identical
  // runs snapshot at the same boundary must produce the same bytes. The
  // sharded front-end holds no state of its own, so with integer updates
  // (bit-exact merges) it writes the serial pipeline's bytes at any worker
  // count — position, high-water mark and late-record count included.
  for (const core::KeyReplayMode replay :
       {core::KeyReplayMode::kCurrentInterval,
        core::KeyReplayMode::kNextInterval}) {
    const auto serial =
        state_at_close<core::ChangeDetectionPipeline>(6, replay);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial,
              state_at_close<core::ChangeDetectionPipeline>(6, replay));
    for (const std::size_t workers : {1u, 2u, 4u}) {
      ingest::ParallelConfig parallel;
      parallel.workers = workers;
      EXPECT_EQ(serial,
                state_at_close<ingest::ParallelPipeline>(6, replay, parallel))
          << "W=" << workers;
    }
  }
}

/// A valid snapshot with its leading engine-state version word set to 3.
std::vector<std::uint8_t> as_v3(std::vector<std::uint8_t> state) {
  for (std::size_t i = 0; i < 8; ++i) state[i] = i == 0 ? 3 : 0;
  return state;
}

TEST(SaveState, V3StreamIsBadVersion) {
  core::ChangeDetectionPipeline source(small_config());
  feed_stream(source, 0.0, 45.0);
  source.flush();
  core::ChangeDetectionPipeline pipeline(small_config());
  try {
    pipeline.restore_state(as_v3(source.save_state()));
    FAIL() << "expected SerializeError";
  } catch (const sketch::SerializeError& e) {
    EXPECT_EQ(e.kind(), sketch::SerializeErrorKind::kBadVersion);
  }
}

TEST(Recover, SkipsV3CheckpointForAnOlderV4One) {
  const core::PipelineConfig config = small_config();
  const auto dir = fresh_dir("ckpt_v3_skip");
  core::ChangeDetectionPipeline source(config);
  feed_stream(source, 0.0, 45.0);
  source.flush();
  const std::vector<std::uint8_t> state = source.save_state();
  {
    CheckpointWriterOptions options;
    options.directory = dir;
    options.metrics = false;
    CheckpointWriter writer(options, config);
    (void)writer.write(4, state);
    (void)writer.write(5, as_v3(state));  // newest
  }
  core::ChangeDetectionPipeline resumed(config);
  const RecoverResult result = recover(dir, resumed);
  ASSERT_TRUE(result.restored);
  EXPECT_EQ(result.skipped, 1u);
  EXPECT_EQ(result.interval_index, 4u);
  EXPECT_EQ(resumed.save_state(), state);
}

TEST(Recover, EmptyDirectoryLeavesPipelineUntouched) {
  core::ChangeDetectionPipeline pipeline(small_config());
  const RecoverResult result = recover(fresh_dir("ckpt_empty"), pipeline);
  EXPECT_FALSE(result.restored);
  EXPECT_EQ(result.skipped, 0u);
  EXPECT_FALSE(pipeline.position().started);
}

TEST(Recover, SerialRoundTripResumesIdentically) {
  const core::PipelineConfig config = small_config();
  const auto dir = fresh_dir("ckpt_serial_rt");

  // Reference: one uninterrupted run.
  core::ChangeDetectionPipeline reference(config);
  feed_stream(reference, 0.0, 1e9);
  reference.flush();

  // Checkpointed run that "crashes" after t = 75 s.
  {
    core::ChangeDetectionPipeline pipeline(config);
    CheckpointWriterOptions options;
    options.directory = dir;
    options.metrics = false;
    CheckpointWriter writer(options, config);
    writer.attach(pipeline);
    feed_stream(pipeline, 0.0, 75.0);
    // Pipeline destroyed without flush: the crash.
  }
  ASSERT_FALSE(list_checkpoints(dir).empty());

  core::ChangeDetectionPipeline resumed(config);
  const RecoverResult result = recover(dir, resumed);
  ASSERT_TRUE(result.restored);
  EXPECT_EQ(result.skipped, 0u);
  const double resume_s = resumed.position().next_interval_start_s;
  feed_stream(resumed, resume_s, 1e9);
  resumed.flush();

  // Every post-restore report must match the uninterrupted run exactly.
  ASSERT_FALSE(resumed.reports().size() == 0u);
  for (const core::IntervalReport& report : resumed.reports()) {
    ASSERT_LT(report.index, reference.reports().size());
    const core::IntervalReport& expected = reference.reports()[report.index];
    EXPECT_EQ(report.index, expected.index);
    EXPECT_EQ(report.records, expected.records);
    EXPECT_EQ(report.detection_ran, expected.detection_ran);
    EXPECT_EQ(report.estimated_error_f2, expected.estimated_error_f2);
    EXPECT_EQ(report.alarm_threshold, expected.alarm_threshold);
    ASSERT_EQ(report.alarms.size(), expected.alarms.size());
    for (std::size_t i = 0; i < report.alarms.size(); ++i) {
      EXPECT_EQ(report.alarms[i].key, expected.alarms[i].key);
      EXPECT_EQ(report.alarms[i].error, expected.alarms[i].error);
    }
  }
}

TEST(Recover, ParallelRoundTripRestores) {
  const core::PipelineConfig config = small_config();
  ingest::ParallelConfig parallel;
  parallel.workers = 4;
  const auto dir = fresh_dir("ckpt_parallel_rt");
  std::size_t barriers_at_crash = 0;
  {
    ingest::ParallelPipeline pipeline(config, parallel);
    CheckpointWriterOptions options;
    options.directory = dir;
    options.metrics = false;
    CheckpointWriter writer(options, config);
    writer.attach(pipeline);
    for (double t = 1.0; t < 75.0; t += 10.0) {
      for (std::uint64_t key = 0; key < 40; ++key) {
        pipeline.add(key, 100.0, t);
      }
    }
    pipeline.flush();
    barriers_at_crash = pipeline.parallel_stats().barriers;
  }
  ASSERT_GT(barriers_at_crash, 0u);
  ASSERT_FALSE(list_checkpoints(dir).empty());

  ingest::ParallelPipeline resumed(config, parallel);
  const RecoverResult result = recover(dir, resumed);
  ASSERT_TRUE(result.restored);
  EXPECT_TRUE(resumed.position().started);
  EXPECT_GT(resumed.position().next_interval_start_s, 0.0);
}

TEST(Recover, ConfigMismatchIsTypedError) {
  const core::PipelineConfig config = small_config();
  const auto dir = fresh_dir("ckpt_mismatch");
  {
    core::ChangeDetectionPipeline pipeline(config);
    CheckpointWriterOptions options;
    options.directory = dir;
    options.metrics = false;
    CheckpointWriter writer(options, config);
    writer.attach(pipeline);
    feed_stream(pipeline, 0.0, 45.0);
  }
  core::PipelineConfig other = config;
  other.threshold = 0.5;
  core::ChangeDetectionPipeline pipeline(other);
  try {
    (void)recover(dir, pipeline);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.checkpoint_kind(), CheckpointErrorKind::kConfigMismatch);
  }
}

/// Runs the stream through a `Writer` pipeline with a checkpoint at every
/// close until a crash after t = 75 s, recovers the newest checkpoint into a
/// `Reader` pipeline, and finishes the stream there. Returns the resumed
/// reports and the uninterrupted serial run's.
template <typename Writer, typename Reader>
std::pair<std::vector<core::IntervalReport>, std::vector<core::IntervalReport>>
resume_across(const core::PipelineConfig& config, const std::string& name) {
  ingest::ParallelConfig parallel;
  parallel.workers = 3;
  const auto make = [&]<typename Pipeline>() {
    if constexpr (std::is_same_v<Pipeline, ingest::ParallelPipeline>) {
      return Pipeline(config, parallel);
    } else {
      return Pipeline(config);
    }
  };
  core::ChangeDetectionPipeline reference(config);
  feed_stream(reference, 0.0, 1e9);
  reference.flush();

  const auto dir = fresh_dir(name);
  {
    Writer pipeline = make.template operator()<Writer>();
    CheckpointWriterOptions options;
    options.directory = dir;
    options.metrics = false;
    CheckpointWriter writer(options, config);
    writer.attach(pipeline);
    feed_stream(pipeline, 0.0, 75.0);
    // Destroyed without flush: the crash.
  }
  Reader resumed = make.template operator()<Reader>();
  const RecoverResult result = recover(dir, resumed);
  EXPECT_TRUE(result.restored);
  EXPECT_EQ(result.skipped, 0u);
  EXPECT_EQ(resumed.position().interval_index, 7u);
  feed_stream(resumed, resumed.position().next_interval_start_s, 1e9);
  resumed.flush();
  return {resumed.reports(), reference.reports()};
}

/// Replay mode: every resumed report is bit-identical to the uninterrupted
/// run's.
void expect_reports_bit_identical(
    const std::vector<core::IntervalReport>& got,
    const std::vector<core::IntervalReport>& want) {
  ASSERT_FALSE(got.empty());
  std::size_t alarms = 0;
  for (const core::IntervalReport& report : got) {
    ASSERT_LT(report.index, want.size());
    const core::IntervalReport& expected = want[report.index];
    SCOPED_TRACE("interval " + std::to_string(report.index));
    EXPECT_EQ(report.start_s, expected.start_s);
    EXPECT_EQ(report.records, expected.records);
    EXPECT_EQ(report.detection_ran, expected.detection_ran);
    EXPECT_EQ(report.keys_checked, expected.keys_checked);
    EXPECT_EQ(report.estimated_error_f2, expected.estimated_error_f2);
    EXPECT_EQ(report.alarm_threshold, expected.alarm_threshold);
    ASSERT_EQ(report.alarms.size(), expected.alarms.size());
    for (std::size_t i = 0; i < report.alarms.size(); ++i) {
      EXPECT_EQ(report.alarms[i].key, expected.alarms[i].key);
      EXPECT_EQ(report.alarms[i].error, expected.alarms[i].error);
    }
    alarms += report.alarms.size();
  }
  EXPECT_GT(alarms, 0u);  // the spike's aftermath is after the crash point
}

/// Invertible mode: majority-vote state does not merge linearly, so the
/// bar is the same (interval, key) alarm set as the uninterrupted run.
void expect_same_alarm_set(const std::vector<core::IntervalReport>& got,
                           const std::vector<core::IntervalReport>& want) {
  ASSERT_FALSE(got.empty());
  std::set<std::pair<std::size_t, std::uint64_t>> got_alarms;
  std::set<std::pair<std::size_t, std::uint64_t>> want_alarms;
  for (const core::IntervalReport& report : got) {
    ASSERT_LT(report.index, want.size());
    for (const detect::Alarm& a : report.alarms) {
      got_alarms.emplace(a.interval, a.key);
    }
    for (const detect::Alarm& a : want[report.index].alarms) {
      want_alarms.emplace(a.interval, a.key);
    }
  }
  EXPECT_FALSE(want_alarms.empty());
  EXPECT_EQ(got_alarms, want_alarms);
}

core::PipelineConfig invertible_config() {
  core::PipelineConfig config = small_config();
  config.recovery = core::RecoveryMode::kInvertible;
  return config;
}

TEST(Recover, SerialCheckpointResumesInParallelPipeline) {
  {
    const auto [got, want] =
        resume_across<core::ChangeDetectionPipeline, ingest::ParallelPipeline>(
            small_config(), "ckpt_serial_to_parallel");
    expect_reports_bit_identical(got, want);
  }
  const auto [got, want] =
      resume_across<core::ChangeDetectionPipeline, ingest::ParallelPipeline>(
          invertible_config(), "ckpt_serial_to_parallel_mv");
  expect_same_alarm_set(got, want);
}

TEST(Recover, ParallelCheckpointResumesInSerialPipeline) {
  {
    const auto [got, want] =
        resume_across<ingest::ParallelPipeline, core::ChangeDetectionPipeline>(
            small_config(), "ckpt_parallel_to_serial");
    expect_reports_bit_identical(got, want);
  }
  const auto [got, want] =
      resume_across<ingest::ParallelPipeline, core::ChangeDetectionPipeline>(
          invertible_config(), "ckpt_parallel_to_serial_mv");
  expect_same_alarm_set(got, want);
}

/// A checkpoint file as the retired parallel front-end wrote it: payload
/// kind 2, holding the version-1 front-end wrapper around an engine
/// snapshot.
std::vector<std::uint8_t> parallel_v1_frame(
    const core::PipelineConfig& config, std::uint64_t interval_index,
    const core::StreamPosition& position, const core::PipelineStats& stats,
    const std::vector<std::uint8_t>& engine) {
  std::vector<std::uint8_t> wrapper;
  common::ByteWriter out(wrapper);
  out.u64(1);  // front-end state version
  out.u64(position.started ? 1 : 0);
  out.f64(position.next_interval_start_s);
  out.f64(position.high_water_s);
  out.u64(stats.records);
  out.u64(stats.out_of_order_records);
  out.u64(position.interval_index);
  out.u64(engine.size());
  wrapper.insert(wrapper.end(), engine.begin(), engine.end());
  std::vector<std::uint8_t> frame = encode_checkpoint_frame(
      checkpoint::config_fingerprint(config), interval_index, wrapper);
  common::store_le<std::uint32_t>(frame.data() + 8, 2);  // payload kind
  common::store_le<std::uint32_t>(frame.data() + 44,
                                  common::crc32(frame.data(), 44));
  return frame;
}

TEST(Recover, SkipsRetiredParallelFormatForAnOlderOne) {
  const core::PipelineConfig config = small_config();
  const auto dir = fresh_dir("ckpt_kind2_skip");
  core::ChangeDetectionPipeline source(config);
  feed_stream(source, 0.0, 45.0);
  source.flush();
  const std::vector<std::uint8_t> state = source.save_state();
  const std::vector<std::uint8_t> kind2 = parallel_v1_frame(
      config, 5, source.position(), source.stats(), state);
  try {
    (void)decode_checkpoint_frame(kind2);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.checkpoint_kind(), CheckpointErrorKind::kBadPayload);
  }
  {
    CheckpointWriterOptions options;
    options.directory = dir;
    options.metrics = false;
    CheckpointWriter writer(options, config);
    (void)writer.write(4, state);
  }
  {
    std::ofstream out(dir / checkpoint_filename(5), std::ios::binary);
    out.write(reinterpret_cast<const char*>(kind2.data()),
              static_cast<std::streamsize>(kind2.size()));
  }
  core::ChangeDetectionPipeline serial(config);
  const RecoverResult serial_result = recover(dir, serial);
  ASSERT_TRUE(serial_result.restored);
  EXPECT_EQ(serial_result.skipped, 1u);
  EXPECT_EQ(serial_result.interval_index, 4u);
  EXPECT_EQ(serial.save_state(), state);

  ingest::ParallelConfig parallel;
  parallel.workers = 2;
  ingest::ParallelPipeline sharded(config, parallel);
  const RecoverResult sharded_result = recover(dir, sharded);
  ASSERT_TRUE(sharded_result.restored);
  EXPECT_EQ(sharded_result.skipped, 1u);
  EXPECT_EQ(sharded_result.interval_index, 4u);
  EXPECT_EQ(sharded.save_state(), state);
}

}  // namespace
}  // namespace scd::checkpoint
