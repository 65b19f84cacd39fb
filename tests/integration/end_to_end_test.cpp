// End-to-end: synthetic trace with ground-truth anomalies -> trace file ->
// pipeline -> alarms. Exercises every layer of the library together the way
// the examples and benches do.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>

#include "core/pipeline.h"
#include "eval/intervalized.h"
#include "eval/metrics.h"
#include "eval/sketch_path.h"
#include "eval/truth.h"
#include "forecast/runner.h"
#include "sketch/serialize.h"
#include "support/temp_path.h"
#include "traffic/synthetic.h"
#include "traffic/trace_io.h"

namespace {

using namespace scd;

traffic::SyntheticConfig scenario_config() {
  traffic::SyntheticConfig config;
  config.seed = 21;
  config.duration_s = 3600.0;
  config.base_rate = 60.0;
  config.num_hosts = 2000;
  config.zipf_exponent = 1.05;
  traffic::AnomalySpec dos;
  dos.kind = traffic::AnomalyKind::kDosAttack;
  dos.start_s = 1800.0;
  dos.duration_s = 300.0;
  dos.magnitude = 250.0;
  dos.target_rank = 150;
  config.anomalies.push_back(dos);
  traffic::AnomalySpec crowd;
  crowd.kind = traffic::AnomalyKind::kFlashCrowd;
  crowd.start_s = 2700.0;
  crowd.duration_s = 600.0;
  crowd.magnitude = 200.0;
  crowd.target_rank = 500;
  config.anomalies.push_back(crowd);
  return config;
}

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    generator_ = new traffic::SyntheticTraceGenerator(scenario_config());
    trace_ = new std::vector<traffic::FlowRecord>(generator_->generate());
  }
  static void TearDownTestSuite() {
    delete trace_;
    delete generator_;
    trace_ = nullptr;
    generator_ = nullptr;
  }

  static traffic::SyntheticTraceGenerator* generator_;
  static std::vector<traffic::FlowRecord>* trace_;
};

traffic::SyntheticTraceGenerator* EndToEndTest::generator_ = nullptr;
std::vector<traffic::FlowRecord>* EndToEndTest::trace_ = nullptr;

TEST_F(EndToEndTest, PipelineFlagsDosTargetDuringAttack) {
  core::PipelineConfig config;
  config.interval_s = 300.0;
  config.h = 5;
  config.k = 32768;
  config.model.kind = forecast::ModelKind::kEwma;
  config.model.alpha = 0.6;
  config.threshold = 0.1;
  core::ChangeDetectionPipeline pipeline(config);
  for (const auto& r : *trace_) pipeline.add_record(r);
  pipeline.flush();

  const auto target = generator_->dst_ip_of_rank(150);
  // Attack spans 1800-2100 s -> interval index 6 (1800-2100).
  bool flagged = false;
  for (const auto& report : pipeline.reports()) {
    if (report.start_s >= 1800.0 - 1.0 && report.start_s < 2100.0) {
      for (const auto& alarm : report.alarms) {
        if (alarm.key == target && alarm.error > 0) flagged = true;
      }
    }
  }
  EXPECT_TRUE(flagged);
}

TEST_F(EndToEndTest, FlashCrowdTargetIsFlaggedOnRamp) {
  core::PipelineConfig config;
  config.interval_s = 300.0;
  config.k = 32768;
  config.model.kind = forecast::ModelKind::kHoltWinters;
  config.model.alpha = 0.6;
  config.model.beta = 0.3;
  config.threshold = 0.1;
  core::ChangeDetectionPipeline pipeline(config);
  for (const auto& r : *trace_) pipeline.add_record(r);
  pipeline.flush();

  const auto target = generator_->dst_ip_of_rank(500);
  bool flagged = false;
  for (const auto& report : pipeline.reports()) {
    if (report.start_s >= 2700.0 - 1.0 && report.start_s < 3300.0) {
      for (const auto& alarm : report.alarms) {
        if (alarm.key == target) flagged = true;
      }
    }
  }
  EXPECT_TRUE(flagged);
}

TEST_F(EndToEndTest, QuietPeriodHasFewAlarmsAtHighThreshold) {
  core::PipelineConfig config;
  config.interval_s = 300.0;
  config.k = 32768;
  config.model.kind = forecast::ModelKind::kEwma;
  config.model.alpha = 0.6;
  config.threshold = 0.3;
  core::ChangeDetectionPipeline pipeline(config);
  for (const auto& r : *trace_) pipeline.add_record(r);
  pipeline.flush();
  std::size_t quiet_alarms = 0;
  for (const auto& report : pipeline.reports()) {
    if (report.detection_ran && report.end_s <= 1800.0) {
      quiet_alarms += report.alarms.size();
    }
  }
  EXPECT_LE(quiet_alarms, 10u);
}

TEST_F(EndToEndTest, TraceFileRoundTripFeedsPipelineIdentically) {
  const auto dir = scd::test_support::unique_temp_path("e2e");
  std::filesystem::create_directories(dir);
  const auto path = (dir / "scenario.scdt").string();
  traffic::write_trace(path, *trace_);
  const auto reread = traffic::read_trace(path);
  std::remove(path.c_str());
  ASSERT_EQ(reread.size(), trace_->size());

  core::PipelineConfig config;
  config.interval_s = 600.0;
  config.k = 8192;
  core::ChangeDetectionPipeline p1(config), p2(config);
  for (const auto& r : *trace_) p1.add_record(r);
  for (const auto& r : reread) p2.add_record(r);
  p1.flush();
  p2.flush();
  ASSERT_EQ(p1.reports().size(), p2.reports().size());
  for (std::size_t i = 0; i < p1.reports().size(); ++i) {
    EXPECT_EQ(p1.reports()[i].alarms.size(), p2.reports()[i].alarms.size());
    EXPECT_DOUBLE_EQ(p1.reports()[i].estimated_error_f2,
                     p2.reports()[i].estimated_error_f2);
  }
}

TEST_F(EndToEndTest, OfflineEvalAgreesWithPipelineOnTopKey) {
  // The offline two-pass eval path and the online pipeline should both rank
  // the DoS target first during the attack interval.
  eval::IntervalizedStream stream(*trace_, 300.0, traffic::KeyKind::kDstIp,
                                  traffic::UpdateKind::kBytes);
  forecast::ModelConfig model;
  model.kind = forecast::ModelKind::kEwma;
  model.alpha = 0.6;
  eval::SketchPathOptions options;
  options.k = 32768;
  const auto sketch = eval::compute_sketch_errors(stream, model, options);
  const auto truth = eval::compute_perflow_truth(stream, model);
  const std::size_t t = 6;  // 1800-2100 s
  ASSERT_TRUE(sketch.intervals[t].ready);
  const auto target = generator_->dst_ip_of_rank(150);
  ASSERT_FALSE(sketch.intervals[t].ranked.empty());
  EXPECT_EQ(sketch.intervals[t].ranked[0].key, target);
  EXPECT_EQ(truth.intervals[t].ranked[0].key, target);
}

TEST_F(EndToEndTest, MultiRouterCombineSeesDistributedChange) {
  // Two vantage points over a shared host space; each carries half of a
  // surge. Serialized sketches are combined at a collector; the combined
  // error sketch must estimate the full change volume.
  traffic::SyntheticConfig base = scenario_config();
  base.anomalies.clear();
  base.host_space_seed = 31337;
  base.duration_s = 1200.0;
  base.base_rate = 40.0;
  auto c1 = base, c2 = base;
  c1.seed = 51;
  c2.seed = 52;
  traffic::SyntheticTraceGenerator g1(c1), g2(c2);
  const std::uint32_t victim = g1.dst_ip_of_rank(123);
  ASSERT_EQ(victim, g2.dst_ip_of_rank(123));

  const auto family = sketch::make_tabulation_family(9001, 5);
  auto sketch_stream = [&](const std::vector<traffic::FlowRecord>& records,
                           bool inject) {
    eval::IntervalizedStream stream(records, 300.0, traffic::KeyKind::kDstIp,
                                    traffic::UpdateKind::kBytes);
    std::vector<std::vector<std::uint8_t>> out;
    for (std::size_t t = 0; t < 4; ++t) {
      sketch::KarySketch observed(family, 8192);
      if (t < stream.num_intervals()) stream.fill_observed_sketch(t, observed);
      if (inject && t == 3) observed.update(victim, 5e6);  // half the surge
      out.push_back(sketch::sketch_to_bytes(observed));
    }
    return out;
  };
  const auto e1 = sketch_stream(g1.generate(), true);
  const auto e2 = sketch_stream(g2.generate(), true);

  sketch::FamilyRegistry registry;
  forecast::ModelConfig model;
  model.kind = forecast::ModelKind::kEwma;
  model.alpha = 0.5;
  sketch::KarySketch prototype = sketch::sketch_from_bytes(e1[0], registry);
  prototype.set_zero();
  forecast::ForecastRunner<sketch::KarySketch> runner(model, prototype);
  double final_estimate = 0.0;
  for (std::size_t t = 0; t < 4; ++t) {
    auto combined = sketch::sketch_from_bytes(e1[t], registry);
    combined.add_scaled(sketch::sketch_from_bytes(e2[t], registry), 1.0);
    if (const auto step = runner.step(combined); step.has_value() && t == 3) {
      final_estimate = step->error.estimate(victim);
    }
  }
  // Both halves of the surge must be visible in the combined error sketch.
  EXPECT_GT(final_estimate, 8e6);
}

TEST_F(EndToEndTest, SketchAccuracyHoldsOnRealisticTrace) {
  eval::IntervalizedStream stream(*trace_, 300.0, traffic::KeyKind::kDstIp,
                                  traffic::UpdateKind::kBytes);
  forecast::ModelConfig model;
  model.kind = forecast::ModelKind::kEwma;
  model.alpha = 0.6;
  const auto truth = eval::compute_perflow_truth(stream, model);
  eval::SketchPathOptions options;
  options.k = 32768;
  options.h = 5;
  const auto sketch = eval::compute_sketch_errors(stream, model, options);
  double total_similarity = 0.0;
  int n = 0;
  for (std::size_t t = 2; t < stream.num_intervals(); ++t) {
    if (!truth.intervals[t].ready) continue;
    total_similarity += eval::topn_similarity(truth.intervals[t].ranked,
                                              sketch.intervals[t].ranked, 50);
    ++n;
  }
  ASSERT_GT(n, 0);
  EXPECT_GT(total_similarity / n, 0.9);  // paper Fig 5: ~0.95+ at K=32K
}

}  // namespace
