// Pre-registered instrument bundle for ChangeDetectionPipeline.
//
// All pipeline instances share one process-wide set of instruments (the
// Prometheus model: a process exports one `scd_pipeline_records_total`, not
// one per object). Registration happens exactly once, on first use, so the
// pipeline's hot path only ever touches stable references — no locks, no
// lookups, no allocation in add_record.
//
// Stage histograms form one family, scd_pipeline_stage_seconds{stage=...},
// mapping to the paper's module structure (§2.2):
//   sketch_update  — UPDATE(S_o, a, u) of one staged block of records
//   interval_close — everything done when an interval boundary passes
//   forecast       — the forecasting module's step (S_f, S_e construction)
//   estimate_f2    — ESTIMATEF2(S_e) + threshold computation (T_A)
//   key_replay     — ESTIMATE per candidate key + ranking + hysteresis
//   refit          — §6 online grid-search re-fit
#pragma once

#include "obs/metrics.h"

namespace scd::obs {

struct PipelineInstruments {
  Counter& records;                // scd_pipeline_records_total
  Counter& intervals_closed;       // scd_pipeline_intervals_closed_total
  Counter& detections;             // intervals where detection ran
  Counter& alarms_threshold;       // scd_pipeline_alarms_total{criterion=...}
  Counter& alarms_topn;
  Counter& keys_replayed;          // scd_pipeline_keys_replayed_total
  Counter& recovery_candidates;    // scd_recovery_candidates_total
  Counter& recovery_keys;          // scd_recovery_keys_total
  Counter& hysteresis_suppressed;  // flagged but below min_consecutive
  Counter& refits;                 // scd_pipeline_refits_total
  Counter& out_of_order;           // scd_pipeline_out_of_order_total

  Gauge& replay_buffer_keys;       // sampled key-set occupancy at close
  Gauge& recovery_last_keys;       // scd_recovery_last_keys
  Gauge& sketch_bytes;             // register memory of the observed sketch
  Gauge& last_alarm_threshold;     // T_A of the latest detection
  Gauge& last_error_l2;            // sqrt(max(ESTIMATEF2, 0)) of the latest

  Histogram& stage_sketch_update;
  Histogram& stage_interval_close;
  Histogram& stage_forecast;
  Histogram& stage_estimate_f2;
  Histogram& stage_key_replay;
  Histogram& stage_refit;

  /// The shared bundle, registered against MetricsRegistry::global() on
  /// first call (thread-safe via static-local initialization).
  [[nodiscard]] static PipelineInstruments& global();

  /// Registers a full bundle against `registry` (tests use private
  /// registries to assert on exposition without cross-test interference).
  [[nodiscard]] static PipelineInstruments create(MetricsRegistry& registry);
};

}  // namespace scd::obs
