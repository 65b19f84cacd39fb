// Kill -9 / restore integration test (tier-2, label "checkpoint").
//
// A child process runs the W=4 sharded pipeline with checkpointing and is
// destroyed by SIGKILL mid-stream — a real crash: no destructors, no
// flush, worker threads vaporized. The parent then recovers from the
// surviving checkpoint directory and finishes the stream; its post-restore
// reports must be bit-identical to an uninterrupted run. A second case
// resumes the sharded child's checkpoint in the serial pipeline.
//
// These tests live in their own binary because the child must be forked
// while no other thread exists in the process (forking a multi-threaded
// process clones only the calling thread — locks held by the others stay
// locked forever in the child). gtest itself is single-threaded, and each
// test's pipelines are constructed only after its fork and joined before
// the next test forks.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

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

/// `whole_updates` rounds every update to an integer, which makes sharded
/// merges bit-exact against the serial pipeline.
std::vector<Item> make_stream(bool whole_updates = false) {
  std::vector<Item> items;
  common::Rng rng(0xdeadbeef);
  for (int interval = 0; interval < 10; ++interval) {
    const double base = interval * 10.0;
    for (int rep = 0; rep < 3; ++rep) {
      for (std::uint64_t key = 0; key < 50; ++key) {
        const double update = 250.0 + rng.uniform(-40.0, 40.0);
        items.push_back({key, whole_updates ? std::round(update) : update,
                         base + 1.0 + rep * 3.0});
      }
    }
    if (interval == 6) items.push_back({13, 80000.0, base + 8.0});
  }
  return items;
}

core::PipelineConfig crash_config() {
  core::PipelineConfig config;
  config.interval_s = 10.0;
  config.h = 4;
  config.k = 256;
  config.threshold = 0.2;
  config.model.kind = forecast::ModelKind::kEwma;
  config.model.alpha = 0.6;
  config.metrics = false;
  return config;
}

ingest::ParallelConfig crash_parallel() {
  ingest::ParallelConfig parallel;
  parallel.workers = 4;
  parallel.batch_size = 32;
  return parallel;
}

/// Child body: stream with checkpointing until at least two checkpoints
/// exist and the stream has moved past them, then die by SIGKILL with the
/// next interval partially fed. Never returns.
[[noreturn]] void run_child_and_die(const std::filesystem::path& dir,
                                   bool whole_updates = false) {
  const core::PipelineConfig config = crash_config();
  ingest::ParallelPipeline pipeline(config, crash_parallel());
  CheckpointWriterOptions options;
  options.directory = dir;
  options.keep = 4;
  options.metrics = false;
  CheckpointWriter writer(options, config);
  writer.attach(pipeline);
  for (const Item& item : make_stream(whole_updates)) {
    pipeline.add(item.key, item.update, item.time_s);
    if (item.time_s > 55.0 && list_checkpoints(dir).size() >= 2) {
      raise(SIGKILL);
    }
  }
  // Unreachable when checkpointing works; exiting normally tells the
  // parent the kill precondition was never met.
  _exit(42);
}

TEST(CrashRecovery, Kill9ThenRestoreMatchesUninterruptedRun) {
  const std::filesystem::path dir =
      test_support::unique_temp_path("checkpoints");
  std::filesystem::remove_all(dir);

  // Fork FIRST: no pipeline (and hence no thread) exists yet.
  const pid_t child = fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    run_child_and_die(dir);  // never returns
  }

  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child exited normally (status " << status
      << ") instead of dying by signal";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
  ASSERT_FALSE(list_checkpoints(dir).empty())
      << "child died before writing any checkpoint";

  // Reference: the same stream through the same W=4 front-end,
  // uninterrupted. (Sharded merges are bit-exact across runs of the same
  // worker count; against the serial pipeline they agree only to a few
  // ULP, which is not the bar a restore must clear.)
  const core::PipelineConfig config = crash_config();
  ingest::ParallelPipeline reference(config, crash_parallel());
  for (const Item& item : make_stream()) {
    reference.add(item.key, item.update, item.time_s);
  }
  reference.flush();

  ingest::ParallelPipeline resumed(config, crash_parallel());
  const RecoverResult result = recover(dir, resumed);
  ASSERT_TRUE(result.restored);
  const double resume_s = resumed.position().next_interval_start_s;
  for (const Item& item : make_stream()) {
    if (item.time_s < resume_s) continue;
    resumed.add(item.key, item.update, item.time_s);
  }
  resumed.flush();

  ASSERT_FALSE(resumed.reports().empty());
  std::size_t alarms_seen = 0;
  for (const core::IntervalReport& report : resumed.reports()) {
    ASSERT_LT(report.index, reference.reports().size());
    const core::IntervalReport& expected = reference.reports()[report.index];
    SCOPED_TRACE("interval " + std::to_string(report.index));
    EXPECT_EQ(report.records, expected.records);
    EXPECT_EQ(report.detection_ran, expected.detection_ran);
    EXPECT_EQ(report.estimated_error_f2, expected.estimated_error_f2);
    EXPECT_EQ(report.alarm_threshold, expected.alarm_threshold);
    ASSERT_EQ(report.alarms.size(), expected.alarms.size());
    for (std::size_t i = 0; i < report.alarms.size(); ++i) {
      EXPECT_EQ(report.alarms[i].key, expected.alarms[i].key);
      EXPECT_EQ(report.alarms[i].error, expected.alarms[i].error);
      EXPECT_EQ(report.alarms[i].threshold_abs,
                expected.alarms[i].threshold_abs);
    }
    alarms_seen += report.alarms.size();
  }
  // The spike interval (6) is after every possible restore point here, so
  // the resumed run must re-detect it — the property is not vacuous.
  EXPECT_GT(alarms_seen, 0u);

  std::filesystem::remove_all(dir);
}

TEST(CrashRecovery, Kill9ShardedThenResumeInSerialPipeline) {
  const std::filesystem::path dir =
      test_support::unique_temp_path("checkpoints_to_serial");
  std::filesystem::remove_all(dir);

  // Fork FIRST: the previous test's pipelines are joined, and this one's
  // exist only after the fork.
  const pid_t child = fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    run_child_and_die(dir, /*whole_updates=*/true);  // never returns
  }

  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child exited normally (status " << status
      << ") instead of dying by signal";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
  ASSERT_FALSE(list_checkpoints(dir).empty())
      << "child died before writing any checkpoint";

  // The sharded child's checkpoint is an engine snapshot; with whole-number
  // updates its merged registers equal the serial ones, so the resumed
  // serial run must match an uninterrupted serial run bit for bit.
  const std::vector<Item> stream = make_stream(/*whole_updates=*/true);
  const core::PipelineConfig config = crash_config();
  core::ChangeDetectionPipeline reference(config);
  for (const Item& item : stream) {
    reference.add(item.key, item.update, item.time_s);
  }
  reference.flush();

  core::ChangeDetectionPipeline resumed(config);
  const RecoverResult result = recover(dir, resumed);
  ASSERT_TRUE(result.restored);
  const double resume_s = resumed.position().next_interval_start_s;
  for (const Item& item : stream) {
    if (item.time_s < resume_s) continue;
    resumed.add(item.key, item.update, item.time_s);
  }
  resumed.flush();

  ASSERT_FALSE(resumed.reports().empty());
  std::size_t alarms_seen = 0;
  for (const core::IntervalReport& report : resumed.reports()) {
    ASSERT_LT(report.index, reference.reports().size());
    const core::IntervalReport& expected = reference.reports()[report.index];
    SCOPED_TRACE("interval " + std::to_string(report.index));
    EXPECT_EQ(report.records, expected.records);
    EXPECT_EQ(report.detection_ran, expected.detection_ran);
    EXPECT_EQ(report.estimated_error_f2, expected.estimated_error_f2);
    EXPECT_EQ(report.alarm_threshold, expected.alarm_threshold);
    ASSERT_EQ(report.alarms.size(), expected.alarms.size());
    for (std::size_t i = 0; i < report.alarms.size(); ++i) {
      EXPECT_EQ(report.alarms[i].key, expected.alarms[i].key);
      EXPECT_EQ(report.alarms[i].error, expected.alarms[i].error);
    }
    alarms_seen += report.alarms.size();
  }
  EXPECT_GT(alarms_seen, 0u);
  EXPECT_EQ(resumed.stats().records, reference.stats().records);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace scd::checkpoint
