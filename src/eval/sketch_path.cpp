#include "eval/sketch_path.h"

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "detect/detection.h"
#include "forecast/runner.h"
#include "hash/cw_hash.h"
#include "hash/tabulation_hash.h"
#include "sketch/kary_sketch.h"

namespace scd::eval {

double SketchPathResult::total_energy(std::size_t warmup_intervals) const {
  return std::sqrt(total_f2(warmup_intervals));
}

double SketchPathResult::total_f2(std::size_t warmup_intervals) const {
  double sum = 0.0;
  for (std::size_t t = warmup_intervals; t < intervals.size(); ++t) {
    // ESTIMATEF2 is unbiased, not nonnegative; clamp per-interval terms so a
    // near-zero error signal cannot drive the total negative.
    if (intervals[t].ready) sum += std::max(intervals[t].est_f2, 0.0);
  }
  return sum;
}

namespace {

template <typename Family>
SketchPathResult run_path(const IntervalizedStream& stream,
                          const forecast::ModelConfig& config,
                          const SketchPathOptions& options) {
  using Sketch = sketch::BasicKarySketch<Family>;
  const auto family = std::make_shared<const Family>(options.seed, options.h);
  const Sketch prototype(family, options.k);
  forecast::ForecastRunner<Sketch> runner(config, prototype);

  SketchPathResult result;
  result.intervals.resize(stream.num_intervals());
  std::vector<std::uint64_t> keys;
  std::vector<double> errors;
  for (std::size_t t = 0; t < stream.num_intervals(); ++t) {
    Sketch observed = prototype;
    stream.fill_observed_sketch(t, observed);
    const auto step = runner.step(observed);
    SketchIntervalErrors& out = result.intervals[t];
    if (!step.has_value()) continue;
    out.ready = true;
    out.est_f2 = step->error.estimate_f2();
    if (options.collect_errors) {
      // Replay ESTIMATE through the engine's batched kernel.
      const auto updates = stream.interval(t);
      keys.clear();
      for (const AggregatedUpdate& u : updates) keys.push_back(u.key);
      errors.resize(keys.size());
      step->error.estimate_batch(keys, errors);
      out.ranked.reserve(keys.size());
      for (std::size_t j = 0; j < keys.size(); ++j) {
        out.ranked.push_back({keys[j], errors[j]});
      }
      detect::sort_by_abs_error(out.ranked);
    }
  }
  return result;
}

}  // namespace

SketchPathResult compute_sketch_errors(const IntervalizedStream& stream,
                                       const forecast::ModelConfig& config,
                                       const SketchPathOptions& options) {
  if (traffic::key_fits_32bit(stream.key_kind())) {
    return run_path<hash::TabulationHashFamily>(stream, config, options);
  }
  return run_path<hash::CwHashFamily>(stream, config, options);
}

}  // namespace scd::eval
