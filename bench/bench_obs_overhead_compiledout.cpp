// Compiled-out companion to bench_obs_overhead: the same add-dominated
// loop, but linked against scd_core_noobs — the pipeline translation units
// rebuilt with -DSCD_OBS_ENABLED=0, so every stage timer and span site
// compiles to nothing and the instruments are never bound.
//
// This binary cannot link scd_bench_support (it would drag in the regular
// scd_core and collide), so it prints in the same format by hand. Compare
// its ns/record against the "metrics disabled (runtime)" row of
// bench_obs_overhead: the difference is the cost of the runtime toggle
// itself (a pointer test per record), expected to be ~0.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "obs/trace.h"

// SCD_TRACE_ENABLED defaults to SCD_OBS_ENABLED: in this -DSCD_OBS_ENABLED=0
// build every SCD_TRACE_SPAN site must be a no-op statement, not a runtime
// check. Compile-time proof of the "zero cost compiled out" claim.
static_assert(SCD_TRACE_ENABLED == 0,
              "span macros must compile away when SCD_OBS_ENABLED=0");

namespace {

using namespace scd;

double run_once(const std::vector<std::uint32_t>& keys) {
  core::PipelineConfig config;
  config.interval_s = 1000.0;
  config.h = 5;
  config.k = 4096;
  config.threshold = 0.1;
  config.metrics = true;  // irrelevant: SCD_OBS_ENABLED=0 compiles it away
  core::ChangeDetectionPipeline pipeline(config);
  const common::Stopwatch sw;
  double t = 0.0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    t += 4000.0 / static_cast<double>(keys.size());
    pipeline.add(keys[i], 100.0, t);
  }
  const double elapsed = sw.seconds();
  pipeline.flush();
  return elapsed;
}

}  // namespace

int main() {
  using namespace scd;
  std::printf("== obs overhead (compiled out): add_record throughput with "
              "SCD_OBS_ENABLED=0 ==\n");

  constexpr std::size_t kRecords = 4'000'000;
  std::vector<std::uint32_t> keys(kRecords);
  common::Rng rng(7);
  for (auto& k : keys) k = static_cast<std::uint32_t>(rng.next_u64() >> 40);

  constexpr int kReps = 5;
  double best = 1e30;
  (void)run_once(keys);  // warm-up, not measured
  for (int rep = 0; rep < kReps; ++rep) best = std::min(best, run_once(keys));

  std::printf("%-28s %14.3e %14.1f\n", "obs compiled out",
              static_cast<double>(kRecords) / best, best / kRecords * 1e9);
  std::printf("CHECK compiled-out loop completed: PASS\n");
  return 0;
}
