// The two kinds of benchmark run: the untraced end-to-end run and the traced
// per-layer run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;  // closed intervals checked
  std::uint64_t failed = 0;     // of those, alarm sets that differ
  /// False when anything other than alarm sets went wrong (records lost,
  /// the wrong number of intervals, a ledger that cannot be built).
  bool sound = true;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // printed as "# ..." before the result
};

struct RunOptions {
  Workload workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  std::size_t workers = 1;  // ParallelPipeline shard workers
  /// Committed digests for this (workload, seed), or null when the seed is
  /// not the default one.
  const std::vector<std::uint64_t>* committed = nullptr;
  std::string out_dir;  // ledger and Chrome trace of the traced run
};

/// Untraced run: repeats fresh-pipeline passes over the input for
/// `seconds` and reports the end-to-end metrics as medians over passes.
[[nodiscard]] RunResult run_end_to_end(const RunOptions& options,
                                       const Input& input);

/// Traced run: serial pipeline untraced and traced, the parallel front-end,
/// then each layer's public function in isolation. Writes the ledger and the
/// Chrome trace under out_dir and reports the per-layer metrics. `input`
/// must hold the decoded records.
[[nodiscard]] RunResult run_traced(const RunOptions& options,
                                   const Input& input);

}  // namespace perfbench
