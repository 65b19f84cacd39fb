#include "checkpoint/checkpoint_metrics.h"

#include "obs/metrics.h"

namespace scd::checkpoint {

CheckpointInstruments CheckpointInstruments::create(
    obs::MetricsRegistry& registry) {
  return CheckpointInstruments{
      registry.counter("scd_ckpt_snapshots_total",
                       "Checkpoint files written successfully"),
      registry.counter("scd_ckpt_snapshot_bytes_total",
                       "Bytes written across all checkpoints (header and "
                       "payload, successful writes only)"),
      registry.counter("scd_ckpt_write_failures_total",
                       "Checkpoint writes that failed before the atomic "
                       "rename completed"),
      registry.histogram("scd_ckpt_snapshot_seconds",
                         "Latency of one checkpoint write attempt, failed "
                         "ones included: frame, durable write, rename, prune",
                         obs::Histogram::default_latency_buckets()),
      registry.counter("scd_ckpt_restores_total",
                       "Successful recover() restores"),
      registry.counter("scd_ckpt_restore_skipped_total",
                       "Checkpoint candidates skipped during recovery as "
                       "corrupt, truncated, or unreadable"),
      registry.gauge("scd_ckpt_last_snapshot_bytes",
                     "Size in bytes of the most recently written checkpoint"),
  };
}

CheckpointInstruments& CheckpointInstruments::global() {
  static CheckpointInstruments instance =
      create(obs::MetricsRegistry::global());
  return instance;
}

}  // namespace scd::checkpoint
