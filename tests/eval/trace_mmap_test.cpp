// Trace feed equivalence: feed_trace() is a decode-and-add_record loop, so
// in every recovery mode and interval policy its reports and PipelineStats
// must be bit-identical to a per-record add_record() feed of the same trace
// — including interval gaps, randomized interval lengths, staged UPDATE
// blocks that straddle interval boundaries, and out-of-order clamping. The
// reader's typed-error corpus lives in tests/traffic/trace_io_test.cpp.
#include "eval/trace_mmap.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/pipeline.h"
#include "support/temp_path.h"
#include "traffic/flow_record.h"
#include "traffic/trace_io.h"

namespace scd::eval {
namespace {

std::string fresh_path(const std::string& name) {
  const std::filesystem::path path = test_support::unique_temp_path(name);
  std::filesystem::remove(path);
  return path.string();
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

traffic::FlowRecord make_record(double time_s, std::uint32_t dst_ip,
                                std::uint64_t bytes) {
  traffic::FlowRecord r;
  r.timestamp_us = static_cast<std::uint64_t>(time_s * 1e6);
  r.src_ip = 0x0a000001;
  r.dst_ip = dst_ip;
  r.bytes = bytes;
  return r;
}

/// Deterministic multi-interval stream: 40 steady keys per 10 s interval
/// with integer-jittered byte counts, a spike on key 999 in interval 6, and
/// a quiet gap (no records) in interval 3 so empty-interval closing is on
/// the path. Interval 8 repeats its keys into 9000 records, more than two
/// staged UPDATE blocks, so a block drains inside an interval. Integer
/// updates keep every register sum exact, so the comparisons below can
/// demand bit equality.
std::vector<traffic::FlowRecord> corpus_records() {
  std::vector<traffic::FlowRecord> records;
  for (std::size_t t = 0; t < 10; ++t) {
    if (t == 3) continue;  // gap interval
    const double start = static_cast<double>(t) * 10.0;
    const std::uint32_t count = t == 8 ? 9000 : 40;
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t key = 1 + i % 40;
      const auto jitter = static_cast<std::uint64_t>(
          common::mix64(key * 1000 + t) % 11);
      records.push_back(make_record(start + 1.0 + i * 1e-3, key,
                                    (300 + jitter) / (count / 40)));
    }
    if (t == 6) records.push_back(make_record(start + 2.0, 999, 40000));
  }
  return records;
}

core::PipelineConfig corpus_config() {
  core::PipelineConfig config;
  config.interval_s = 10.0;
  config.h = 5;
  config.k = 4096;
  config.model.kind = forecast::ModelKind::kEwma;
  config.model.alpha = 0.5;
  config.threshold = 0.2;
  config.metrics = false;
  return config;
}

std::string corpus_trace() {
  const std::string path = fresh_path("mmap_corpus.scdt");
  traffic::write_trace(path, corpus_records());
  return path;
}

using AlarmSet = std::set<std::pair<std::size_t, std::uint64_t>>;

AlarmSet alarm_set(const std::vector<core::IntervalReport>& reports) {
  AlarmSet out;
  for (const auto& report : reports) {
    for (const auto& alarm : report.alarms) out.emplace(report.index, alarm.key);
  }
  return out;
}

TEST(MappedTrace, RoundTripMatchesTraceReader) {
  // Random-access decode() and the streaming next() pass both return the
  // records written, across block boundaries.
  const std::vector<traffic::FlowRecord> expected = corpus_records();
  ASSERT_GT(expected.size(), 2 * MappedTrace::kTraceBlockRecords);
  const std::string path = corpus_trace();
  const MappedTrace trace(path);
  ASSERT_EQ(trace.record_count(), expected.size());
  std::vector<traffic::FlowRecord> all(expected.size());
  trace.decode(0, all);
  EXPECT_EQ(all, expected);

  traffic::TraceReader reader(path);
  traffic::FlowRecord r;
  std::size_t n = 0;
  while (reader.next(r)) {
    ASSERT_LT(n, expected.size());
    EXPECT_EQ(r, expected[n]) << "record " << n;
    ++n;
  }
  EXPECT_EQ(n, expected.size());

  // Bulk decode straddling an arbitrary offset agrees with per-record; a
  // range past the end is refused, not read.
  std::vector<traffic::FlowRecord> slice(7);
  trace.decode(5, slice);
  for (std::size_t i = 0; i < slice.size(); ++i) {
    EXPECT_EQ(slice[i], expected[5 + i]);
  }
  EXPECT_THROW(trace.decode(expected.size() - 3, slice), std::out_of_range);
}

TEST(MappedTrace, ZeroRecordFileIsValid) {
  const std::string path = fresh_path("mmap_empty.scdt");
  traffic::write_trace(path, {});
  const MappedTrace trace(path);
  EXPECT_EQ(trace.record_count(), 0u);

  core::ChangeDetectionPipeline pipeline(corpus_config());
  feed_trace(trace, pipeline);
  EXPECT_EQ(pipeline.stats().records, 0u);
  EXPECT_EQ(pipeline.stats().intervals_closed, 0u);
  EXPECT_TRUE(pipeline.reports().empty());
}

/// Feeds the trace at `path` both ways under `config` and demands the same
/// reports, alarms and stats.
void expect_feed_matches_per_record(const std::string& path,
                                    const core::PipelineConfig& config) {
  core::ChangeDetectionPipeline serial(config);
  for (const traffic::FlowRecord& r : traffic::read_trace(path)) {
    serial.add_record(r);
  }
  serial.flush();
  ASSERT_FALSE(alarm_set(serial.reports()).empty());  // spike is flagged

  const MappedTrace trace(path);
  core::ChangeDetectionPipeline pipeline(config);
  feed_trace(trace, pipeline);

  ASSERT_EQ(pipeline.reports().size(), serial.reports().size());
  EXPECT_EQ(alarm_set(pipeline.reports()), alarm_set(serial.reports()));
  for (std::size_t i = 0; i < serial.reports().size(); ++i) {
    SCOPED_TRACE("report " + std::to_string(i));
    const auto& s = serial.reports()[i];
    const auto& p = pipeline.reports()[i];
    EXPECT_DOUBLE_EQ(p.start_s, s.start_s);
    EXPECT_DOUBLE_EQ(p.end_s, s.end_s);
    EXPECT_EQ(p.records, s.records);
    EXPECT_EQ(p.keys_checked, s.keys_checked);
    EXPECT_DOUBLE_EQ(p.estimated_error_f2, s.estimated_error_f2);
    EXPECT_DOUBLE_EQ(p.alarm_threshold, s.alarm_threshold);
  }
  EXPECT_EQ(pipeline.stats().records, trace.record_count());
  EXPECT_EQ(pipeline.stats().records, serial.stats().records);
  EXPECT_EQ(pipeline.stats().intervals_closed,
            serial.stats().intervals_closed);
  EXPECT_EQ(pipeline.stats().out_of_order_records,
            serial.stats().out_of_order_records);
}

TEST(MappedTrace, FeedMatchesPerRecordFeedBitExactly) {
  expect_feed_matches_per_record(corpus_trace(), corpus_config());
}

TEST(MappedTrace, FeedMatchesPerRecordFeedInInvertibleMode) {
  core::PipelineConfig config = corpus_config();
  config.recovery = core::RecoveryMode::kInvertible;
  expect_feed_matches_per_record(corpus_trace(), config);
}

TEST(MappedTrace, FeedMatchesPerRecordFeedWithRandomizedIntervals) {
  core::PipelineConfig config = corpus_config();
  config.randomize_intervals = true;
  expect_feed_matches_per_record(corpus_trace(), config);
}

TEST(MappedTrace, FeedClampsAndCountsOutOfOrderRecords) {
  // Patch one mid-stream timestamp backwards (byte surgery — TraceWriter
  // enforces ordering, the reader must tolerate what routers actually emit).
  const std::string path = corpus_trace();
  std::vector<std::uint8_t> bytes = read_file(path);
  const std::size_t offset = 16 + 50 * traffic::kTraceRecordBytes;
  for (std::size_t i = 0; i < 8; ++i) bytes[offset + i] = 0;  // t = 0 us
  write_file(path, bytes);

  const MappedTrace trace(path);
  core::ChangeDetectionPipeline pipeline(corpus_config());
  feed_trace(trace, pipeline);
  EXPECT_EQ(pipeline.stats().out_of_order_records, 1u);
  expect_feed_matches_per_record(path, corpus_config());
}

}  // namespace
}  // namespace scd::eval
