// Trace feed: replays one .scdt trace into the serial pipeline.
//
// feed_trace() is a decode-and-add_record loop: interval cutting, the
// out-of-order clamp and the batched UPDATE all happen inside the pipeline,
// so on the same trace its reports, alarms and PipelineStats are exactly
// those of any other add_record feed (asserted by
// tests/eval/trace_mmap_test.cpp). Reading and validation belong to
// traffic::TraceReader (src/traffic/trace_io.h).
#pragma once

#include "core/pipeline.h"
#include "traffic/trace_io.h"

namespace scd::eval {

/// The trace reader under its older name, kept for callers that still
/// spell it this way.
using MappedTrace = traffic::TraceReader;

/// Feeds every record of the trace into `pipeline` with add_record, then
/// flush()es it. The pipeline's stats() count the records, intervals and
/// out-of-order records of the run.
void feed_trace(const MappedTrace& trace,
                core::ChangeDetectionPipeline& pipeline);

}  // namespace scd::eval
