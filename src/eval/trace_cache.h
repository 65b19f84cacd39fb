// On-disk + in-process cache of synthetic router traces, so the fifteen-odd
// bench binaries don't each regenerate the same multi-million-record files.
// Traces are stored under $SCD_TRACE_DIR (default "./traces") in the binary
// trace format, keyed by profile name, and validated when read back: a
// cached file that is cut short or corrupt throws a typed TraceError and is
// regenerated, never silently replayed with fewer records.
#pragma once

#include <string>
#include <vector>

#include "traffic/flow_record.h"
#include "traffic/router_profiles.h"

namespace scd::eval {

/// Returns the trace for a router profile, generating and persisting it on
/// first use. The reference stays valid for the process lifetime.
[[nodiscard]] const std::vector<traffic::FlowRecord>& cached_trace(
    const traffic::RouterProfile& profile);

/// Directory used for persisted traces.
[[nodiscard]] std::string trace_cache_dir();

}  // namespace scd::eval
