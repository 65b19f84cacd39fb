// FlightRecorder behavior: retention windows, asynchronous alarm dumps,
// checkpoint-error notification, and dump-file structure. The fatal-signal
// path has its own forking binary (flight_recorder_fatal_test.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/temp_path.h"

namespace scd::obs {
namespace {

std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path dir = test_support::unique_temp_path(name);
  std::filesystem::remove_all(dir);
  return dir;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

FlightIntervalSummary summary(std::uint64_t index, std::uint64_t alarms) {
  FlightIntervalSummary s;
  s.index = index;
  s.start_s = index * 300;
  s.end_s = (index + 1) * 300;
  s.records = 1000 + index;
  s.detection_ran = index > 0;
  s.estimated_error_f2 = 1.5e9;
  s.alarm_threshold = 0.25;
  s.alarms = alarms;
  return s;
}

TEST(FlightRecorder, DumpNowWritesValidEnvelope) {
  FlightRecorder::Options options;
  options.directory = fresh_dir("flightrec_envelope");
  options.metrics = false;
  TraceController trace;
  options.trace = &trace;
  FlightRecorder recorder(options);
  recorder.set_config_fingerprint(0x1234abcdULL);
  recorder.observe_interval(summary(0, 0));
  recorder.observe_provenance(R"({"schema":"scd-provenance-v1","fake":1})");

  const auto path = recorder.dump_now("unit-test");
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(std::filesystem::exists(*path));
  const std::string body = slurp(*path);
  EXPECT_NE(body.find("\"schema\":\"scd-flightrec-v1\""), std::string::npos);
  EXPECT_NE(body.find("\"reason\":\"unit-test\""), std::string::npos);
  EXPECT_NE(body.find("\"config_fingerprint\":\"0x000000001234abcd\""),
            std::string::npos);
  EXPECT_NE(body.find("\"index\":0"), std::string::npos);
  EXPECT_NE(body.find("\"fake\":1"), std::string::npos);
  EXPECT_NE(body.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(recorder.dumps(), 1u);
  EXPECT_EQ(recorder.dump_bytes(), body.size());
  EXPECT_EQ(recorder.dump_failures(), 0u);
}

TEST(FlightRecorder, RetainsOnlyTheConfiguredWindow) {
  FlightRecorder::Options options;
  options.directory = fresh_dir("flightrec_retention");
  options.metrics = false;
  options.keep_intervals = 4;
  options.keep_provenance = 3;
  options.dump_on_alarm = false;
  TraceController trace;
  options.trace = &trace;
  FlightRecorder recorder(options);
  for (std::uint64_t i = 0; i < 10; ++i) {
    recorder.observe_interval(summary(i, 0));
    recorder.observe_provenance(R"({"record":)" + std::to_string(i) + "}");
  }

  const auto path = recorder.dump_now("window");
  ASSERT_TRUE(path.has_value());
  const std::string body = slurp(*path);
  // Oldest intervals/provenance fell out of the window; newest survive.
  EXPECT_EQ(body.find("\"index\":5"), std::string::npos) << body;
  EXPECT_NE(body.find("\"index\":6"), std::string::npos) << body;
  EXPECT_NE(body.find("\"index\":9"), std::string::npos) << body;
  EXPECT_EQ(body.find("{\"record\":6}"), std::string::npos) << body;
  EXPECT_NE(body.find("{\"record\":7}"), std::string::npos) << body;
  EXPECT_NE(body.find("{\"record\":9}"), std::string::npos) << body;
}

TEST(FlightRecorder, AlarmTriggersAsynchronousDump) {
  FlightRecorder::Options options;
  options.directory = fresh_dir("flightrec_alarm");
  options.metrics = false;
  TraceController trace;
  options.trace = &trace;
  FlightRecorder recorder(options);
  recorder.observe_interval(summary(0, 0));  // quiet interval: no dump
  recorder.observe_interval(summary(1, 2));  // alarmed: schedules one
  recorder.flush();

  EXPECT_EQ(recorder.dumps(), 1u);
  bool found = false;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.directory)) {
    const std::string name = entry.path().filename().string();
    if (name.find("alarm") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(FlightRecorder, BurstOfRequestsCoalesces) {
  FlightRecorder::Options options;
  options.directory = fresh_dir("flightrec_coalesce");
  options.metrics = false;
  TraceController trace;
  options.trace = &trace;
  FlightRecorder recorder(options);
  for (int i = 0; i < 50; ++i) recorder.request_dump("burst");
  recorder.flush();
  // Requests queued behind an unstarted dump merge into it: far fewer
  // files than requests (exact count depends on worker scheduling).
  EXPECT_GE(recorder.dumps(), 1u);
  EXPECT_LT(recorder.dumps(), 50u);
}

TEST(FlightRecorder, CheckpointErrorNotificationDumpsWithNote) {
  FlightRecorder::Options options;
  options.directory = fresh_dir("flightrec_ckpt_error");
  options.metrics = false;
  TraceController trace;
  options.trace = &trace;
  FlightRecorder recorder(options);
  FlightRecorder::set_global(&recorder);
  FlightRecorder::notify_checkpoint_error("checkpoint write", "disk on fire");
  recorder.flush();
  FlightRecorder::set_global(nullptr);

  ASSERT_GE(recorder.dumps(), 1u);
  bool found_note = false;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.directory)) {
    const std::string body = slurp(entry.path());
    if (body.find("checkpoint write: disk on fire") != std::string::npos &&
        body.find("\"reason\":\"checkpoint-error\"") != std::string::npos) {
      found_note = true;
    }
  }
  EXPECT_TRUE(found_note);
}

TEST(FlightRecorder, RegistersMetricsWhenAsked) {
  MetricsRegistry registry;
  FlightRecorder::Options options;
  options.directory = fresh_dir("flightrec_metrics");
  options.registry = &registry;
  TraceController trace;
  options.trace = &trace;
  FlightRecorder recorder(options);
  (void)recorder.dump_now("metrics");

  bool saw_dumps = false;
  bool saw_gauge = false;
  for (const auto& family : registry.families()) {
    if (family.name == "scd_flightrec_dumps_total") saw_dumps = true;
    if (family.name == "scd_flightrec_intervals_retained") saw_gauge = true;
  }
  EXPECT_TRUE(saw_dumps);
  EXPECT_TRUE(saw_gauge);
}

}  // namespace
}  // namespace scd::obs
