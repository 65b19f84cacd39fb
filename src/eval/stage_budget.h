// Stage-budget table: renders the pipeline's stage histograms
// (scd_pipeline_stage_seconds) against the caller's wall time, so benches
// and CLIs can show where an experiment's time went (sketch update vs
// forecast vs ESTIMATEF2 vs key replay vs re-fit) and how much of it no
// stage covers.
#pragma once

#include <string>

#include "core/pipeline.h"
#include "obs/pipeline_metrics.h"

namespace scd::eval {

/// One row per stage of `instruments`: total seconds, unit cost and share of
/// `wall_s`, the caller's wall time for the run. `stats` supplies only the
/// unit counts (records, intervals, replayed keys, re-fits). forecast,
/// estimate_f2 and key_replay run inside interval_close and are indented
/// under it; the last row, unaccounted, is `wall_s` minus sketch_update,
/// interval_close and refit. Returns a note instead of a table when no
/// stage was timed (metrics disabled, or no records).
[[nodiscard]] std::string format_stage_budget(
    const obs::PipelineInstruments& instruments,
    const core::PipelineStats& stats, double wall_s);

}  // namespace scd::eval
