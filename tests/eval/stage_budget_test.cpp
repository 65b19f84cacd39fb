#include "eval/stage_budget.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/pipeline.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"

namespace scd::eval {
namespace {

using obs::Stage;

bool has_line(const std::string& table, const std::string& needle) {
  return table.find(needle) != std::string::npos;
}

TEST(StageBudget, RendersOneRowPerStagePlusUnaccounted) {
  obs::MetricsRegistry registry;
  obs::PipelineInstruments instruments =
      obs::PipelineInstruments::create(registry);
  instruments.stage(Stage::kSketchUpdate).observe(0.5);
  instruments.stage(Stage::kIntervalClose).observe(0.75);
  instruments.stage(Stage::kIntervalClose).observe(0.25);
  instruments.stage(Stage::kForecast).observe(0.25);
  instruments.stage(Stage::kEstimateF2).observe(0.125);
  instruments.stage(Stage::kKeyReplay).observe(0.5);
  instruments.stage(Stage::kRefit).observe(0.5);
  core::PipelineStats stats;
  stats.records = 1000;
  stats.intervals_closed = 4;
  stats.keys_replayed = 100;
  stats.refits = 2;

  const std::string table = format_stage_budget(instruments, stats, 4.0);
  EXPECT_TRUE(has_line(table, "stage budget (wall time 4.0000 s):\n"))
      << table;
  // Total, unit cost and share of the wall time.
  EXPECT_TRUE(has_line(table,
                       "  sketch_update        0.5000 s     500.000 "
                       "us/record    12.5%\n"))
      << table;
  EXPECT_TRUE(has_line(table,
                       "  interval_close       1.0000 s  250000.000 "
                       "us/interval  25.0%\n"))
      << table;
  EXPECT_TRUE(has_line(table,
                       "    forecast           0.2500 s   62500.000 "
                       "us/interval   6.2%\n"))
      << table;
  EXPECT_TRUE(has_line(table,
                       "    estimate_f2        0.1250 s   31250.000 "
                       "us/interval   3.1%\n"))
      << table;
  EXPECT_TRUE(has_line(table,
                       "    key_replay         0.5000 s    5000.000 "
                       "us/key       12.5%\n"))
      << table;
  EXPECT_TRUE(has_line(table,
                       "  refit                0.5000 s  250000.000 "
                       "us/refit     12.5%\n"))
      << table;
  // Wall time minus sketch_update + interval_close + refit (the nested
  // stages are already inside interval_close).
  EXPECT_TRUE(has_line(table,
                       "  unaccounted          2.0000 s    2000.000 "
                       "us/record    50.0%\n"))
      << table;
}

TEST(StageBudget, MetricsDisabledGivesTheNoTimingNote) {
  // A metrics=false pipeline feeds no stage histogram (the process-wide
  // bundle does not move), so a bundle that only it could have fed holds no
  // timing data.
  const obs::PipelineInstruments& global = obs::PipelineInstruments::global();
  std::uint64_t samples_before = 0;
  for (const obs::Histogram* h : global.stage_seconds) {
    samples_before += h->count();
  }
  core::PipelineConfig config;
  config.interval_s = 10.0;
  config.k = 1024;
  config.metrics = false;
  core::ChangeDetectionPipeline pipeline(config);
  for (int t = 0; t < 50; ++t) pipeline.add(7, 100.0, t);
  pipeline.flush();
  ASSERT_EQ(pipeline.stats().records, 50u);
  std::uint64_t samples_after = 0;
  for (const obs::Histogram* h : global.stage_seconds) {
    samples_after += h->count();
  }
  ASSERT_EQ(samples_after, samples_before);

  obs::MetricsRegistry registry;
  const obs::PipelineInstruments instruments =
      obs::PipelineInstruments::create(registry);

  const std::string table =
      format_stage_budget(instruments, pipeline.stats(), 1.0);
  EXPECT_EQ(table,
            "stage budget: no timing data (pipeline ran with metrics "
            "disabled or saw no records)\n");
}

}  // namespace
}  // namespace scd::eval
