#include "obs/pipeline_metrics.h"

#include <cstddef>

#include "obs/metrics.h"

namespace scd::obs {

PipelineInstruments PipelineInstruments::create(MetricsRegistry& registry) {
  PipelineInstruments out{
      registry.counter("scd_pipeline_records_total",
                       "Flow records fed into add_record/add"),
      registry.counter("scd_pipeline_intervals_closed_total",
                       "Detection intervals closed"),
      registry.counter("scd_pipeline_detections_total",
                       "Intervals where change detection ran (post warm-up)"),
      registry.counter("scd_pipeline_alarms_total",
                       "Alarms raised, by detection criterion",
                       {{"criterion", "threshold"}}),
      registry.counter("scd_pipeline_alarms_total",
                       "Alarms raised, by detection criterion",
                       {{"criterion", "topn"}}),
      registry.counter("scd_pipeline_keys_replayed_total",
                       "Candidate keys replayed through ESTIMATE"),
      registry.counter("scd_recovery_candidates_total",
                       "Candidate keys swept out of the error sketch's "
                       "buckets before verification (sketch-recovery modes)"),
      registry.counter("scd_recovery_keys_total",
                       "Recovered keys that survived median-estimate "
                       "verification (sketch-recovery modes)"),
      registry.counter(
          "scd_pipeline_hysteresis_suppressed_total",
          "Above-threshold keys withheld by min_consecutive hysteresis"),
      registry.counter("scd_pipeline_refits_total",
                       "Online grid-search model re-fits performed"),
      registry.counter("scd_pipeline_out_of_order_total",
                       "Records whose timestamp regressed below the stream "
                       "high-water mark (clamped into the open interval)"),
      registry.gauge("scd_pipeline_replay_buffer_keys",
                     "Sampled key-set size at the last interval close"),
      registry.gauge("scd_recovery_last_keys",
                     "Verified keys recovered by the latest detection "
                     "(sketch-recovery modes)"),
      registry.gauge("scd_pipeline_sketch_bytes",
                     "Register memory of the observed sketch (H*K*8)"),
      registry.gauge("scd_pipeline_last_alarm_threshold",
                     "Absolute alarm threshold T_A of the latest detection"),
      registry.gauge("scd_pipeline_last_error_l2",
                     "Estimated L2 norm of the latest error sketch"),
      {},
  };
  for (std::size_t i = 0; i < kStageNames.size(); ++i) {
    out.stage_seconds[i] = &registry.histogram(
        "scd_pipeline_stage_seconds",
        "Latency of one pipeline stage execution, in seconds (see "
        "docs/OBSERVABILITY.md for the stage-to-paper mapping)",
        Histogram::default_latency_buckets(), {{"stage", kStageNames[i]}});
  }
  return out;
}

PipelineInstruments& PipelineInstruments::global() {
  static PipelineInstruments instruments = create(MetricsRegistry::global());
  return instruments;
}

}  // namespace scd::obs
