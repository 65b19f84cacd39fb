// Instruments for the checkpoint subsystem (src/checkpoint).
//
// Same model as obs/pipeline_metrics.h: registered once against the
// process-global registry, held by stable reference afterwards. Families
// (documented in docs/OBSERVABILITY.md):
//   scd_ckpt_snapshots_total        counter    checkpoints written
//   scd_ckpt_snapshot_bytes_total   counter    bytes written (payload+header)
//   scd_ckpt_write_failures_total   counter    writes that failed midway
//   scd_ckpt_snapshot_seconds       histogram  write latency, failures included
//   scd_ckpt_restores_total         counter    successful recover() restores
//   scd_ckpt_restore_skipped_total  counter    corrupt candidates skipped
//   scd_ckpt_last_snapshot_bytes    gauge      size of the newest checkpoint
#pragma once

#include "obs/metrics.h"

namespace scd::checkpoint {

struct CheckpointInstruments {
  obs::Counter& snapshots;
  obs::Counter& snapshot_bytes;
  obs::Counter& write_failures;
  obs::Histogram& snapshot_seconds;
  obs::Counter& restores;
  obs::Counter& restore_skipped;
  obs::Gauge& last_snapshot_bytes;

  /// Registers (or finds) the bundle in `registry`.
  [[nodiscard]] static CheckpointInstruments create(
      obs::MetricsRegistry& registry);

  /// The process-wide bundle, registered on first use against
  /// MetricsRegistry::global().
  [[nodiscard]] static CheckpointInstruments& global();
};

}  // namespace scd::checkpoint
