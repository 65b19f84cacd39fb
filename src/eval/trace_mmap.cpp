#include "eval/trace_mmap.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/pipeline.h"
#include "traffic/flow_record.h"
#include "traffic/trace_io.h"

namespace scd::eval {

void feed_trace(const MappedTrace& trace,
                core::ChangeDetectionPipeline& pipeline) {
  const auto count = static_cast<std::size_t>(trace.record_count());
  std::vector<traffic::FlowRecord> block(
      std::min(count, MappedTrace::kTraceBlockRecords));
  for (std::size_t first = 0; first < count; first += block.size()) {
    const std::span<traffic::FlowRecord> slice(
        block.data(), std::min(block.size(), count - first));
    trace.decode(first, slice);
    for (const traffic::FlowRecord& r : slice) pipeline.add_record(r);
  }
  pipeline.flush();
}

}  // namespace scd::eval
