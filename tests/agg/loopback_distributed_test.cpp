// End-to-end aggregation-tier tests over real loopback sockets: three node
// pipelines ship interval sketches to an AggServer, and the global view
// must equal a single pipeline fed the merged trace bit-for-bit. The second
// test kills one node mid-run and rejoins it from its checkpoint — the
// ship -> ack -> ingest -> checkpoint ordering plus the aggregator's
// (node, interval) dedup must yield the exact same global COMBINE with no
// interval double-counted or lost (ISSUE 7 acceptance).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "agg/agg_server.h"
#include "agg/shipper.h"
#include "checkpoint/checkpoint.h"
#include "common/random.h"
#include "core/pipeline.h"
#include "ingest/parallel_pipeline.h"
#include "support/temp_path.h"

namespace scd::agg {
namespace {

constexpr std::uint64_t kNodes[] = {1, 2, 3};
constexpr int kMinutes = 6;
constexpr double kNoLimit = 1e18;

core::PipelineConfig node_config() {
  core::PipelineConfig config;
  config.interval_s = 60.0;
  config.h = 5;
  config.k = 1024;
  config.model.kind = forecast::ModelKind::kEwma;
  config.model.alpha = 0.5;
  config.threshold = 0.2;
  config.metrics = false;
  return config;
}

AggregatorConfig agg_config() {
  AggregatorConfig config;
  config.pipeline = node_config();
  config.nodes.assign(std::begin(kNodes), std::end(kNodes));
  return config;
}

struct TimedRecord {
  double time_s = 0.0;
  std::uint64_t key = 0;
  double mass = 0.0;
};

/// One node's deterministic 6-minute stream: 50 private flows with jittered
/// integer masses, plus the shared key 777 whose mass jumps in minute 4 at
/// EVERY node — the change the global view must alarm on.
std::vector<TimedRecord> node_stream(std::uint64_t node) {
  common::Rng rng(0x5eed0 + node);
  std::vector<TimedRecord> records;
  for (int minute = 0; minute < kMinutes; ++minute) {
    const double base = minute * 60.0;
    records.push_back({base + 0.5, 777,
                       500.0 + (minute == 4 ? 900.0 : 0.0)});
    for (std::uint64_t j = 0; j < 50; ++j) {
      records.push_back({base + 1.0 + static_cast<double>(j),
                         node * 100000 + j,
                         std::floor(rng.uniform(400.0, 600.0))});
    }
  }
  return records;
}

/// Feeds a node pipeline the records in [resume_before_s, stop_before_s).
/// The stream is regenerated from scratch each call (checkpoint replay
/// semantics: same seed, skip what the snapshot already consumed).
void feed(ingest::ParallelPipeline& pipeline, std::uint64_t node,
          double resume_before_s, double stop_before_s) {
  for (const TimedRecord& r : node_stream(node)) {
    if (r.time_s < resume_before_s || r.time_s >= stop_before_s) continue;
    pipeline.add(r.key, r.mass, r.time_s);
  }
}

ingest::ParallelConfig parallel_config() {
  ingest::ParallelConfig parallel;
  parallel.workers = 2;
  parallel.queue_capacity = 1 << 12;
  parallel.batch_size = 64;
  return parallel;
}

/// A full uninterrupted node run against the server: anchor the shared
/// interval grid, handshake, stream, flush, bye.
void run_node(std::uint16_t port, std::uint64_t node) {
  ingest::ParallelPipeline pipeline(node_config(), parallel_config());
  pipeline.start_at(0.0);
  ShipperConfig ship_config;
  ship_config.port = port;
  ship_config.node_id = node;
  Shipper shipper(ship_config);
  ASSERT_EQ(shipper.connect(node_config()), 0u);
  shipper.attach(pipeline);
  feed(pipeline, node, 0.0, kNoLimit);
  pipeline.flush();
  shipper.bye();
  EXPECT_EQ(shipper.next_to_ship(), static_cast<std::uint64_t>(kMinutes));
}

/// (key, error) alarms of one report keyed for order-independent comparison
/// (alarm ranking sorts by |error|, where exact ties have no defined order).
std::map<std::uint64_t, double> alarm_map(const core::IntervalReport& report) {
  std::map<std::uint64_t, double> alarms;
  for (const auto& alarm : report.alarms) alarms[alarm.key] = alarm.error;
  return alarms;
}

void expect_reports_bit_identical(
    const std::vector<core::IntervalReport>& got,
    const std::vector<core::IntervalReport>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t t = 0; t < want.size(); ++t) {
    SCOPED_TRACE(t);
    EXPECT_EQ(got[t].start_s, want[t].start_s);
    EXPECT_EQ(got[t].end_s, want[t].end_s);
    EXPECT_EQ(got[t].records, want[t].records);
    EXPECT_EQ(got[t].detection_ran, want[t].detection_ran);
    EXPECT_EQ(got[t].estimated_error_f2, want[t].estimated_error_f2);
    EXPECT_EQ(got[t].alarm_threshold, want[t].alarm_threshold);
    EXPECT_EQ(alarm_map(got[t]), alarm_map(want[t]));
  }
}

TEST(LoopbackDistributed, ThreeNodesMatchSingleMergedRunBitForBit) {
  AggServerConfig server_config;
  server_config.straggler_timeout_s = 0.0;  // barrier only, no clock policy
  AggServer server(agg_config(), server_config);
  server.start();

  // Three live nodes, concurrently, over real sockets.
  std::vector<std::thread> nodes;
  for (const std::uint64_t node : kNodes) {
    nodes.emplace_back([&server, node] { run_node(server.port(), node); });
  }
  for (auto& t : nodes) t.join();

  std::vector<core::IntervalReport> global;
  AggregatorStats stats;
  server.with_core([&](Aggregator& core) {
    core.flush();
    global = core.reports();
    stats = core.stats();
  });
  server.stop();

  EXPECT_EQ(stats.contributions, 3u * kMinutes);
  EXPECT_EQ(stats.duplicates, 0u);
  EXPECT_EQ(stats.straggler_closes, 0u);
  EXPECT_EQ(stats.intervals_combined, static_cast<std::uint64_t>(kMinutes));

  // Reference: ONE pipeline fed the merged trace in time order, on the same
  // epoch-anchored grid. Integer masses make every register sum exact, so
  // "equal" here means bit-identical, not approximately.
  std::vector<TimedRecord> merged;
  for (const std::uint64_t node : kNodes) {
    const auto stream = node_stream(node);
    merged.insert(merged.end(), stream.begin(), stream.end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TimedRecord& a, const TimedRecord& b) {
                     return a.time_s < b.time_s;
                   });
  ingest::ParallelConfig serial;
  serial.workers = 1;
  ingest::ParallelPipeline reference(node_config(), serial);
  reference.start_at(0.0);
  for (const TimedRecord& r : merged) reference.add(r.key, r.mass, r.time_s);
  reference.flush();

  expect_reports_bit_identical(global, reference.reports());

  // The distributed change is in the global view.
  bool alarmed = false;
  for (const auto& alarm : global[4].alarms) alarmed |= alarm.key == 777;
  EXPECT_TRUE(alarmed) << "minute-4 jump on the shared key did not alarm";
}

TEST(LoopbackDistributed, KilledNodeRejoinsFromCheckpointWithoutDoubleCount) {
  // Reference run: all three nodes uninterrupted.
  std::vector<core::IntervalReport> want;
  {
    AggServerConfig server_config;
    server_config.straggler_timeout_s = 0.0;
    AggServer server(agg_config(), server_config);
    server.start();
    for (const std::uint64_t node : kNodes) run_node(server.port(), node);
    server.with_core([&](Aggregator& core) {
      core.flush();
      want = core.reports();
    });
    server.stop();
  }

  const std::filesystem::path dir = test_support::unique_temp_path("rejoin");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  AggServerConfig server_config;
  server_config.straggler_timeout_s = 0.0;
  AggServer server(agg_config(), server_config);
  server.start();

  // Nodes 1 and 2 complete their whole stream first; their parts for the
  // later intervals wait at the barrier for node 3.
  run_node(server.port(), 1);
  run_node(server.port(), 2);

  // Node 3, incarnation one: checkpoints every 2 barriers, ships intervals
  // 0..2, then dies without flush or bye — wherever it was, the aggregator
  // has acked through interval 2 and the newest snapshot covers only 0..1.
  {
    ingest::ParallelPipeline pipeline(node_config(), parallel_config());
    pipeline.start_at(0.0);
    ShipperConfig ship_config;
    ship_config.port = server.port();
    ship_config.node_id = 3;
    Shipper shipper(ship_config);
    ASSERT_EQ(shipper.connect(node_config()), 0u);
    shipper.attach(pipeline);
    checkpoint::CheckpointWriterOptions options;
    options.directory = dir.string();
    options.every = 2;
    checkpoint::CheckpointWriter writer(options, node_config());
    writer.attach(pipeline);
    // Stop just past the first minute-3 record: it closes (and ships)
    // interval 2, then sits in the open interval 3 and dies with the node.
    feed(pipeline, 3, 0.0, 181.0);
    // No flush, no bye: the destructor is the crash.
  }
  server.with_core([&](Aggregator& core) {
    EXPECT_EQ(core.next_expected(3), 3u);
    EXPECT_EQ(core.next_to_close(), 3u);  // intervals 0..2 closed globally
  });

  // Incarnation two: restore the newest snapshot, reconnect, replay the
  // stream from where the snapshot stops. The rebuilt interval 2 is below
  // the aggregator's watermark for node 3 — the shipper learns that from
  // the HelloAck and never even re-sends it.
  {
    ingest::ParallelPipeline pipeline(node_config(), parallel_config());
    const checkpoint::RecoverResult recovered =
        checkpoint::recover(dir.string(), pipeline);
    ASSERT_TRUE(recovered.restored);
    const double resume = pipeline.position().next_interval_start_s;
    EXPECT_EQ(resume, 120.0);  // snapshot covers intervals 0..1
    ShipperConfig ship_config;
    ship_config.port = server.port();
    ship_config.node_id = 3;
    Shipper shipper(ship_config);
    ASSERT_EQ(shipper.connect(node_config()), 3u);
    shipper.attach(pipeline);
    feed(pipeline, 3, resume, kNoLimit);
    pipeline.flush();
    shipper.bye();
    EXPECT_EQ(shipper.skipped(), 1u);  // interval 2: rebuilt, not re-shipped
    EXPECT_EQ(shipper.next_to_ship(), static_cast<std::uint64_t>(kMinutes));
  }

  std::vector<core::IntervalReport> got;
  AggregatorStats stats;
  server.with_core([&](Aggregator& core) {
    core.flush();
    got = core.reports();
    stats = core.stats();
  });
  server.stop();

  // No double count, no loss: every (node, interval) integrated exactly
  // once, and the global reports match the uninterrupted run bit-for-bit.
  EXPECT_EQ(stats.contributions, 3u * kMinutes);
  EXPECT_EQ(stats.duplicates, 0u);
  EXPECT_EQ(stats.stale_drops, 0u);
  EXPECT_EQ(stats.straggler_closes, 0u);
  expect_reports_bit_identical(got, want);
}

}  // namespace
}  // namespace scd::agg
