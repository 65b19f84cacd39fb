// Pre-registered instrument bundle for ChangeDetectionPipeline.
//
// All pipeline instances share one process-wide set of instruments (the
// Prometheus model: a process exports one `scd_pipeline_records_total`, not
// one per object). Registration happens exactly once, on first use, so the
// pipeline's hot path only ever touches stable references — no locks, no
// lookups, no allocation in add_record.
//
// Stage histograms form one family, scd_pipeline_stage_seconds{stage=...},
// one member per Stage below (the paper's module structure, §2.2).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/stage_timer.h"

namespace scd::obs {

/// The pipeline's timed stages. Each name is at once the
/// scd_pipeline_stage_seconds{stage=...} label, the trace span name
/// (category "core") and the stage-budget row.
enum class Stage : std::uint8_t {
  kSketchUpdate,   // UPDATE(S_o, a, u) of one staged block of records
  kIntervalClose,  // everything done when an interval boundary passes
  kForecast,       // the forecasting module's step (S_f, S_e construction)
  kEstimateF2,     // ESTIMATEF2(S_e)
  kKeyReplay,      // ESTIMATE per candidate key + ranking + hysteresis
  kRefit,          // §6 online grid-search re-fit
};

inline constexpr std::array<const char*, 6> kStageNames = {
    "sketch_update", "interval_close", "forecast",
    "estimate_f2",   "key_replay",     "refit"};

[[nodiscard]] constexpr const char* stage_name(Stage stage) noexcept {
  return kStageNames[static_cast<std::size_t>(stage)];
}

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

  /// scd_pipeline_stage_seconds, indexed by Stage.
  std::array<Histogram*, kStageNames.size()> stage_seconds;

  [[nodiscard]] Histogram& stage(Stage s) const noexcept {
    return *stage_seconds[static_cast<std::size_t>(s)];
  }

  /// The shared bundle, registered against MetricsRegistry::global() on
  /// first call (thread-safe via static-local initialization).
  [[nodiscard]] static PipelineInstruments& global();

  /// Registers a full bundle against `registry` (tests use private
  /// registries to assert on exposition without cross-test interference).
  [[nodiscard]] static PipelineInstruments create(MetricsRegistry& registry);
};

/// Times one pipeline stage: feeds the stage's histogram in `instruments`
/// (skipped when null) and a "core" trace span of the stage's name.
[[nodiscard]] inline StageTimer time_stage(PipelineInstruments* instruments,
                                           Stage stage,
                                           std::uint64_t arg = 0) noexcept {
  return StageTimer(
      instruments != nullptr ? &instruments->stage(stage) : nullptr,
      stage_name(stage), "core", arg);
}

}  // namespace scd::obs
