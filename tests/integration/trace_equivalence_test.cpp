// Regression test for the observability fix: dumping on alarm must never
// run inside the interval-close barrier. The flight recorder's
// observe_interval only enqueues work for its detached worker, so a W=4
// parallel run with tracing enabled and dump-on-alarm armed must produce
// the exact alarm sequence of the untraced serial run — no deadlock on the
// barrier, no perturbation of the detection math.
//
// Updates are integer-valued, so shard COMBINE is bit-exact against serial
// accumulation and the alarm comparison below can demand full equality of
// (interval, key, error, threshold_abs) tuples.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/pipeline.h"
#include "detect/provenance.h"
#include "ingest/parallel_pipeline.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "support/temp_path.h"

namespace scd {
namespace {

struct Item {
  std::uint64_t key;
  double update;
  double time_s;
};

// Integer updates only: shard-merge addition order cannot perturb sums.
std::vector<Item> make_stream() {
  std::vector<Item> items;
  common::Rng rng(0x77ace);
  for (int interval = 0; interval < 12; ++interval) {
    const double base = interval * 10.0;
    for (int rep = 0; rep < 4; ++rep) {
      for (std::uint64_t key = 0; key < 80; ++key) {
        items.push_back(
            {key, static_cast<double>(200 + (rng.next_u64() % 100)),
             base + 1.0 + rep * 2.0});
      }
    }
    if (interval == 5) items.push_back({17, 90000.0, base + 9.0});
    if (interval == 8) items.push_back({63, 70000.0, base + 9.0});
  }
  return items;
}

core::PipelineConfig equivalence_config() {
  core::PipelineConfig config;
  config.interval_s = 10.0;
  config.h = 5;
  config.k = 512;
  config.threshold = 0.2;
  config.model.kind = forecast::ModelKind::kEwma;
  config.model.alpha = 0.5;
  config.metrics = false;
  return config;
}

struct AlarmRecord {
  std::size_t interval;
  std::uint64_t key;
  double error;
  double threshold_abs;

  bool operator==(const AlarmRecord&) const = default;
};

std::vector<AlarmRecord> collect_alarms(
    const std::vector<core::IntervalReport>& reports) {
  std::vector<AlarmRecord> alarms;
  for (const auto& report : reports) {
    for (const auto& alarm : report.alarms) {
      alarms.push_back(
          {alarm.interval, alarm.key, alarm.error, alarm.threshold_abs});
    }
  }
  return alarms;
}

TEST(TraceEquivalence, ParallelTracedAlarmsBitEqualSerialUntraced) {
  const std::vector<Item> stream = make_stream();
  const core::PipelineConfig config = equivalence_config();

  // Reference: serial, tracing off, no recorder.
  obs::TraceController::global().set_enabled(false);
  core::ChangeDetectionPipeline serial(config);
  for (const Item& item : stream) {
    serial.add(item.key, item.update, item.time_s);
  }
  serial.flush();
  const std::vector<AlarmRecord> expected = collect_alarms(serial.reports());
  ASSERT_FALSE(expected.empty()) << "stream must produce alarms to compare";

  // Candidate: W=4 sharded, tracing on, flight recorder armed with
  // dump_on_alarm — the configuration where a dump inside the barrier
  // would deadlock or stall the shard workers.
  const std::filesystem::path dir = test_support::unique_temp_path("flightrec");
  std::filesystem::remove_all(dir);
  obs::TraceController::global().set_enabled(true);
  std::size_t provenance_records = 0;
  {
    obs::FlightRecorder::Options options;
    options.directory = dir;
    options.metrics = false;
    obs::FlightRecorder recorder(options);

    ingest::ParallelConfig parallel;
    parallel.workers = 4;
    parallel.batch_size = 64;
    ingest::ParallelPipeline pipeline(config, parallel);
    pipeline.set_alarm_provenance_callback(
        [&](const detect::AlarmProvenance& prov) {
          ++provenance_records;
          recorder.observe_provenance(detect::to_json(prov));
        });
    pipeline.set_report_callback([&recorder](const core::IntervalReport& r) {
      obs::FlightIntervalSummary summary;
      summary.index = r.index;
      summary.alarms = r.alarms.size();
      summary.detection_ran = r.detection_ran;
      recorder.observe_interval(summary);
    });
    for (const Item& item : stream) {
      pipeline.add(item.key, item.update, item.time_s);
    }
    pipeline.flush();
    recorder.flush();

    EXPECT_EQ(collect_alarms(pipeline.reports()), expected);
    EXPECT_EQ(provenance_records, expected.size());
    EXPECT_GT(recorder.dumps(), 0u) << "alarms must have triggered dumps";
    EXPECT_EQ(recorder.dump_failures(), 0u);
  }
  obs::TraceController::global().set_enabled(false);

  // The traced run actually recorded the parallel stages.
  const obs::TraceController::Snapshot snap =
      obs::TraceController::global().snapshot();
  bool saw_update = false;
  bool saw_barrier = false;
  for (const obs::TraceEvent& e : snap.events) {
    const std::string name = e.name;
    if (name == "shard_update_batch") saw_update = true;
    if (name == "barrier_combine") saw_barrier = true;
  }
  EXPECT_TRUE(saw_update);
  EXPECT_TRUE(saw_barrier);
}

}  // namespace
}  // namespace scd
