// Extension (§3.3, option 4 + docs/KEY_RECOVERY.md): recovering changed
// keys directly from the sketch instead of replaying a key stream. Compares
// the three --recovery modes on the small router at 300 s / EWMA:
//   * replay        — the paper's two-pass baseline: plain k-ary sketch,
//                     collect the interval's distinct keys, then ESTIMATE
//                     each against the error sketch (pass 2),
//   * group-testing — per-bit counters, keys read from the cells (33x
//                     memory, the paper's predicted drawback),
//   * invertible    — majority-vote candidate per bucket (3x memory),
//                     single pass, recover_heavy_keys on the error sketch.
// Reports recall/precision of each single-pass mode against the replay
// baseline's flagged set (same seed, same (H, K), same threshold rule — the
// counters are identical, so the baseline is exactly what the recovery
// sweep is trying to reproduce without the second pass), recall against the
// exact per-flow truth as context, memory, and wall time (update + recover).
// Each interval's update and recover passes are timed as the fastest of
// kTimingReps runs, so one scheduler hiccup cannot decide the wall-time
// comparison.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/timer.h"
#include "core/sketch_binding.h"
#include "detect/detection.h"
#include "eval/trace_cache.h"
#include "forecast/runner.h"
#include "sketch/group_testing.h"
#include "sketch/kary_sketch.h"
#include "sketch/mv_sketch.h"
#include "support/bench_util.h"
#include "support/experiments.h"
#include "traffic/key_extract.h"
#include "traffic/router_profiles.h"

namespace {

// All three modes key on kDstIp; the hand-picked sketch types must cover
// that key domain (core/sketch_binding.h).
static_assert(scd::core::kSketchCoversKeyKind<scd::sketch::KarySketch,
                                              scd::traffic::KeyKind::kDstIp>);
static_assert(scd::core::kSketchCoversKeyKind<scd::sketch::MvSketch,
                                              scd::traffic::KeyKind::kDstIp>);
static_assert(
    scd::core::kSketchCoversKeyKind<scd::sketch::GroupTestingSketch,
                                    scd::traffic::KeyKind::kDstIp>);

constexpr std::size_t kH = 5;
constexpr std::size_t kK = 4096;
constexpr std::uint64_t kSeed = 0x6007e57;
constexpr double kThresholdFrac = 0.10;
constexpr int kTimingReps = 5;

/// Fastest of kTimingReps timed runs of `run`, in seconds; `reset` restores
/// the inputs before each run, untimed.
template <typename Reset, typename Run>
double best_of(Reset&& reset, Run&& run) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kTimingReps; ++rep) {
    reset();
    const scd::common::Stopwatch sw;
    run();
    best = std::min(best, sw.seconds());
  }
  return best;
}

/// One mode's accumulated run: wall time split into the streaming pass and
/// the key-identification step, plus per-interval recovered/flagged sets.
struct ModeRun {
  double update_s = 0.0;
  double recover_s = 0.0;
  std::size_t table_bytes = 0;
  // Keys identified per interval (empty set when detection did not run).
  std::vector<std::unordered_set<std::uint64_t>> keys;
  [[nodiscard]] double wall_s() const { return update_s + recover_s; }
};

struct PrecisionRecall {
  double recall = 1.0;
  double precision = 1.0;
};

/// Mean per-interval recall/precision of `got` against `want` over
/// intervals where `want` is nonempty.
PrecisionRecall score(const std::vector<std::unordered_set<std::uint64_t>>& got,
                      const std::vector<std::unordered_set<std::uint64_t>>& want) {
  double recall_sum = 0.0, precision_sum = 0.0;
  std::size_t evaluated = 0;
  for (std::size_t t = 0; t < want.size(); ++t) {
    if (want[t].empty()) continue;
    std::size_t hit = 0;
    for (const auto key : got[t]) {
      if (want[t].contains(key)) ++hit;
    }
    recall_sum +=
        static_cast<double>(hit) / static_cast<double>(want[t].size());
    precision_sum += got[t].empty() ? 1.0
                                    : static_cast<double>(hit) /
                                          static_cast<double>(got[t].size());
    ++evaluated;
  }
  if (evaluated == 0) return {};
  return {recall_sum / static_cast<double>(evaluated),
          precision_sum / static_cast<double>(evaluated)};
}

}  // namespace

int main() {
  using namespace scd;
  bench::print_header(
      "Extension: single-pass changed-key recovery",
      "replay vs group-testing vs invertible (small router, 300s, EWMA)",
      "an invertible sketch recovers the replayed changer set in one pass, "
      "cheaper in wall time than two-pass replay; group testing pays 33x "
      "memory");

  const double interval = 300.0;
  const auto& stream = bench::stream_for("small", interval);
  const auto model =
      bench::cached_grid_model("small", interval, forecast::ModelKind::kEwma);
  const std::size_t warmup = bench::warmup_intervals(interval);
  const auto& truth = bench::truth_for(stream, model);
  const std::size_t intervals = stream.num_intervals();

  // Raw per-interval record stream, bucketed exactly like IntervalizedStream
  // (absolute interval alignment). The wall-time comparison must see the
  // real update volume — many records per key — because two-pass replay's
  // key-collection cost and the invertible sketch's vote cost both scale
  // with records, and the aggregated view would hide the former.
  std::vector<std::vector<sketch::Record>> raw(intervals);
  {
    const auto& trace = eval::cached_trace(traffic::router_by_name("small"));
    const double start =
        std::floor(traffic::record_time_s(trace.front()) / interval) *
        interval;
    for (const auto& r : trace) {
      const auto t = static_cast<std::size_t>(
          (traffic::record_time_s(r) - start) / interval);
      if (t >= intervals) break;
      raw[t].push_back(
          {traffic::extract_key(r, traffic::KeyKind::kDstIp),
           traffic::extract_update(r, traffic::UpdateKind::kBytes)});
    }
  }

  // ---- replay baseline: two passes over each interval's distinct keys ----
  ModeRun replay;
  replay.keys.resize(intervals);
  {
    const auto family =
        std::make_shared<const hash::TabulationHashFamily>(kSeed, kH);
    const sketch::KarySketch prototype(family, kK);
    replay.table_bytes = prototype.table_bytes();
    forecast::ForecastRunner<sketch::KarySketch> runner(model, prototype);
    for (std::size_t t = 0; t < intervals; ++t) {
      std::optional<sketch::KarySketch> observed;
      std::unordered_set<std::uint64_t> interval_keys;
      replay.update_s += best_of(
          [&] {
            observed.emplace(prototype);
            interval_keys = {};
          },
          [&] {
            for (const auto& u : raw[t]) {
              observed->update(u.key, u.update);
              interval_keys.insert(u.key);  // pass-1 distinct-key collection
            }
          });
      const auto step = runner.step(*observed);
      if (!step.has_value() || t < warmup) continue;
      const double l2 = std::sqrt(std::max(step->error.estimate_f2(), 0.0));
      const double threshold = kThresholdFrac * l2;
      replay.recover_s += best_of([&] { replay.keys[t] = {}; },
                                  [&] {
                                    // pass 2: replay ESTIMATE
                                    for (const auto key : interval_keys) {
                                      if (std::abs(step->error.estimate(
                                              key)) >= threshold) {
                                        replay.keys[t].insert(key);
                                      }
                                    }
                                  });
    }
  }

  // ---- invertible (majority-vote) sketch: single pass + bucket sweep ----
  ModeRun mv;
  mv.keys.resize(intervals);
  {
    const auto family =
        std::make_shared<const hash::TabulationHashFamily>(kSeed, kH);
    const sketch::MvSketch prototype(family, kK);
    mv.table_bytes = prototype.table_bytes();
    forecast::ForecastRunner<sketch::MvSketch> runner(model, prototype);
    for (std::size_t t = 0; t < intervals; ++t) {
      std::optional<sketch::MvSketch> observed;
      mv.update_s +=
          best_of([&] { observed.emplace(prototype); },
                  [&] {
                    for (const auto& u : raw[t]) {
                      observed->update(u.key, u.update);
                    }
                  });
      const auto step = runner.step(*observed);
      if (!step.has_value() || t < warmup) continue;
      const double l2 = std::sqrt(std::max(step->error.estimate_f2(), 0.0));
      std::vector<sketch::RecoveredHeavyKey> recovered;
      mv.recover_s += best_of([&] { recovered = {}; },
                              [&] {
                                recovered = step->error.recover_heavy_keys(
                                    kThresholdFrac * l2);
                              });
      for (const auto& r : recovered) mv.keys[t].insert(r.key);
    }
  }

  // ---- group-testing sketch: single pass + per-bit readout ----
  ModeRun group;
  group.keys.resize(intervals);
  {
    const auto family =
        std::make_shared<const hash::TabulationHashFamily>(kSeed, kH);
    const sketch::GroupTestingSketch prototype(family, kK);
    group.table_bytes = prototype.table_bytes();
    forecast::ForecastRunner<sketch::GroupTestingSketch> runner(model,
                                                               prototype);
    for (std::size_t t = 0; t < intervals; ++t) {
      std::optional<sketch::GroupTestingSketch> observed;
      group.update_s +=
          best_of([&] { observed.emplace(prototype); },
                  [&] {
                    for (const auto& u : raw[t]) {
                      observed->update(u.key, u.update);
                    }
                  });
      const auto step = runner.step(*observed);
      if (!step.has_value() || t < warmup) continue;
      const double l2 = std::sqrt(std::max(step->error.estimate_f2(), 0.0));
      std::vector<sketch::RecoveredHeavyKey> recovered;
      group.recover_s += best_of(
          [&] { recovered = {}; },
          [&] {
            recovered = step->error.recover_heavy_keys(kThresholdFrac * l2);
          });
      for (const auto& r : recovered) group.keys[t].insert(r.key);
    }
  }

  // ---- exact per-flow truth (context, not the gating baseline) ----
  std::vector<std::unordered_set<std::uint64_t>> pf_flagged(intervals);
  for (std::size_t t = warmup; t < intervals; ++t) {
    if (!truth.intervals[t].ready) continue;
    const double pf_l2 = std::sqrt(std::max(truth.intervals[t].f2, 0.0));
    for (const auto& e : detect::above_threshold(truth.intervals[t].ranked,
                                                 kThresholdFrac, pf_l2)) {
      pf_flagged[t].insert(e.key);
    }
  }

  const PrecisionRecall mv_vs_replay = score(mv.keys, replay.keys);
  const PrecisionRecall gt_vs_replay = score(group.keys, replay.keys);
  const PrecisionRecall replay_vs_truth = score(replay.keys, pf_flagged);
  const PrecisionRecall mv_vs_truth = score(mv.keys, pf_flagged);
  const PrecisionRecall gt_vs_truth = score(group.keys, pf_flagged);

  std::printf(
      "mode           wall(ms)  update(ms)  recover(ms)  memory(KiB)\n");
  const auto row = [](const char* name, const ModeRun& run) {
    std::printf("%-14s %8.1f  %10.1f  %11.1f  %11.1f\n", name,
                run.wall_s() * 1e3, run.update_s * 1e3, run.recover_s * 1e3,
                static_cast<double>(run.table_bytes) / 1024.0);
  };
  row("replay", replay);
  row("invertible", mv);
  row("group-testing", group);
  std::printf("vs replay baseline:  invertible recall=%.3f precision=%.3f | "
              "group-testing recall=%.3f precision=%.3f\n",
              mv_vs_replay.recall, mv_vs_replay.precision, gt_vs_replay.recall,
              gt_vs_replay.precision);
  std::printf("vs per-flow truth:   replay recall=%.3f | invertible "
              "recall=%.3f | group-testing recall=%.3f\n",
              replay_vs_truth.recall, mv_vs_truth.recall, gt_vs_truth.recall);

  bench::check(mv_vs_replay.recall >= 0.95 && mv_vs_replay.precision >= 0.9,
               "invertible recovery reproduces the two-pass changer set "
               "(recall >= 0.95 at precision >= 0.9)",
               common::str_format("recall=%.3f precision=%.3f",
                                  mv_vs_replay.recall,
                                  mv_vs_replay.precision));
  bench::check(mv.wall_s() < replay.wall_s(),
               "single-pass invertible recovery is cheaper in wall time than "
               "two-pass replay",
               common::str_format("%.1f ms vs %.1f ms", mv.wall_s() * 1e3,
                                  replay.wall_s() * 1e3));
  bench::check(gt_vs_replay.recall > 0.6,
               "group-testing recovery finds most replayed changers",
               common::str_format("recall=%.3f", gt_vs_replay.recall));
  bench::check(static_cast<double>(group.table_bytes) /
                       static_cast<double>(replay.table_bytes) >
                   10.0,
               "group testing pays the paper's predicted memory multiple",
               common::str_format(
                   "%.0fx vs k-ary (invertible pays %.0fx)",
                   static_cast<double>(group.table_bytes) /
                       static_cast<double>(replay.table_bytes),
                   static_cast<double>(mv.table_bytes) /
                       static_cast<double>(replay.table_bytes)));
  return bench::finish();
}
