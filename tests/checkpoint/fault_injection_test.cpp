// Crash-safety under injected storage faults: partial writes, torn renames
// and silent bit rot (fault_injection.h). The invariants under test are the
// writer's headline claims — a failed write never destroys older
// checkpoints, a torn or rotten file is never loaded, and every failure
// path is a typed CheckpointError.
//
// The injector's event log is dumped to fault-injection.log in the test's
// working directory; CI uploads it as an artifact when this suite fails.
#include "checkpoint/fault_injection.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "core/pipeline.h"
#include "support/temp_path.h"

namespace scd::checkpoint {
namespace {

core::PipelineConfig fault_config() {
  core::PipelineConfig config;
  config.interval_s = 10.0;
  config.h = 3;
  config.k = 64;
  config.model.kind = forecast::ModelKind::kEwma;
  config.metrics = false;
  return config;
}

std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path dir = test_support::unique_temp_path(name);
  std::filesystem::remove_all(dir);
  return dir;
}

/// Drives a checkpointed run whose file ops go through `injector`; returns
/// the checkpoint directory. Write failures inside the interval-close
/// callback are swallowed by design (logged + counted), so the stream
/// itself always completes.
std::filesystem::path run_with_injector(const std::string& name,
                                        ScdFaultInjector& injector) {
  const auto dir = fresh_dir(name);
  const core::PipelineConfig config = fault_config();
  core::ChangeDetectionPipeline pipeline(config);
  CheckpointWriterOptions options;
  options.directory = dir;
  options.keep = 10;
  options.metrics = false;
  options.file_ops = &injector;
  CheckpointWriter writer(options, config);
  writer.attach(pipeline);
  for (double t = 1.0; t < 65.0; t += 10.0) {
    for (std::uint64_t key = 0; key < 20; ++key) {
      pipeline.add(key, 300.0, t);
    }
  }
  pipeline.flush();
  injector.dump_log("fault-injection.log");
  return dir;
}

ScdFaultInjector::Plan partial_write_plan(std::size_t bytes,
                                          std::size_t arm_after) {
  ScdFaultInjector::Plan plan;
  plan.fail_after_bytes = bytes;
  plan.arm_after_ops = arm_after;
  return plan;
}

TEST(FaultInjection, PartialWriteLeavesOlderCheckpointsLoadable) {
  // Two good checkpoints, then every write dies after 10 bytes.
  ScdFaultInjector injector(partial_write_plan(10, 2));
  const auto dir = run_with_injector("fault_partial", injector);

  // The failed writes must not have produced .scdc files, and no temp
  // residue may survive the cleanup path.
  const auto files = list_checkpoints(dir);
  ASSERT_EQ(files.size(), 2u);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }

  core::ChangeDetectionPipeline pipeline(fault_config());
  const RecoverResult result = recover(dir, pipeline);
  EXPECT_TRUE(result.restored);
  EXPECT_EQ(result.skipped, 0u);
  EXPECT_EQ(result.path, files[0]);
}

TEST(FaultInjection, TornRenameIsSkippedAtRecovery) {
  // One good checkpoint, then the next rename tears at 20 bytes.
  ScdFaultInjector::Plan plan;
  plan.torn_rename_bytes = 20;
  plan.arm_after_ops = 1;
  ScdFaultInjector injector(plan);
  const auto dir = run_with_injector("fault_torn", injector);

  // The torn destination looks like a checkpoint file but is garbage;
  // recovery must skip it and land on the good one.
  core::ChangeDetectionPipeline pipeline(fault_config());
  const RecoverResult result = recover(dir, pipeline);
  EXPECT_TRUE(result.restored);
  EXPECT_GE(result.skipped, 1u);
  EXPECT_EQ(result.path.filename().string(),
            checkpoint_filename(1));  // the pre-fault checkpoint
}

TEST(FaultInjection, SilentBitRotIsCaughtByCrc) {
  // The second checkpoint completes "successfully" but one payload bit rots.
  ScdFaultInjector::Plan plan;
  plan.flip_bit = (kCheckpointHeaderBytes + 9) * 8 + 3;
  plan.arm_after_ops = 1;
  ScdFaultInjector injector(plan);
  const auto dir = run_with_injector("fault_rot", injector);

  core::ChangeDetectionPipeline pipeline(fault_config());
  const RecoverResult result = recover(dir, pipeline);
  EXPECT_TRUE(result.restored);
  EXPECT_GE(result.skipped, 1u);
}

TEST(FaultInjection, WriteFailureIsTypedWhenCalledDirectly) {
  ScdFaultInjector injector(partial_write_plan(0, 0));
  const auto dir = fresh_dir("fault_typed");
  const core::PipelineConfig config = fault_config();
  CheckpointWriterOptions options;
  options.directory = dir;
  options.metrics = false;
  options.file_ops = &injector;
  CheckpointWriter writer(options, config);
  try {
    writer.write(PayloadKind::kSerial, 1, {1, 2, 3});
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.checkpoint_kind(), CheckpointErrorKind::kWriteFailed);
    EXPECT_EQ(e.kind(), sketch::SerializeErrorKind::kWriteFailed);
  }
  EXPECT_TRUE(list_checkpoints(dir).empty());
}

TEST(FaultInjection, EventLogRecordsFaults) {
  ScdFaultInjector injector(partial_write_plan(5, 1));
  (void)run_with_injector("fault_log", injector);
  bool saw_fault = false;
  for (const std::string& event : injector.events()) {
    if (event.find("FAULT partial-write") != std::string::npos) {
      saw_fault = true;
    }
  }
  EXPECT_TRUE(saw_fault);
  EXPECT_TRUE(std::filesystem::exists("fault-injection.log"));
}

}  // namespace
}  // namespace scd::checkpoint
