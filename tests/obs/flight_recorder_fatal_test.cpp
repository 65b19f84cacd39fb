// Fatal-signal flight-recorder dump (own binary: the child must be forked
// before gtest or the recorder has spawned any thread in the parent-side
// image; the recorder's worker thread is created after the fork, child-side
// only — same rationale as checkpoint/crash_recovery_test.cpp).
//
// The child arms the recorder, records a few intervals, then takes a real
// SIGSEGV. The installed handler writes the pre-rendered dump with only
// async-signal-safe calls and re-raises; the parent then validates
// flightrec-fatal.json and that the child died by the original signal.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "support/temp_path.h"

namespace scd::obs {
namespace {

[[noreturn]] void run_child_and_crash(const std::filesystem::path& dir) {
  TraceController::global().set_enabled(true);
  FlightRecorder::Options options;
  options.directory = dir;
  options.metrics = false;
  options.dump_on_alarm = false;
  FlightRecorder recorder(options);
  recorder.set_config_fingerprint(0xfeedface12345678ULL);
  FlightRecorder::set_global(&recorder);
  FlightRecorder::install_fatal_signal_handlers();

  // Provenance first: every observe_interval schedules a fatal-dump refresh
  // that renders the state as of (at least) its call, so the refresh forced
  // by the last interval is guaranteed to cover everything recorded here.
  recorder.observe_provenance(R"({"schema":"scd-provenance-v1","crash":1})");
  for (std::uint64_t i = 0; i < 5; ++i) {
    SCD_TRACE_SPAN("child_interval", "test");
    FlightIntervalSummary summary;
    summary.index = i;
    summary.start_s = i * 60;
    summary.end_s = (i + 1) * 60;
    summary.records = 100 * (i + 1);
    summary.detection_ran = true;
    recorder.observe_interval(summary);
  }
  // Wait until the worker has actually rendered the prepared dump.
  recorder.flush();

  ::raise(SIGSEGV);  // handler writes flightrec-fatal.json, then re-raises
  ::_exit(97);       // unreachable: the re-raise must kill us
}

TEST(FlightRecorderFatal, SignalHandlerWritesPreparedDump) {
  const std::filesystem::path dir = test_support::unique_temp_path("flightrec");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) run_child_and_crash(dir);

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child did not die by signal";
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  const std::filesystem::path fatal = dir / "flightrec-fatal.json";
  ASSERT_TRUE(std::filesystem::exists(fatal));
  std::ifstream in(fatal);
  std::ostringstream body_stream;
  body_stream << in.rdbuf();
  const std::string body = body_stream.str();
  EXPECT_NE(body.find("\"schema\":\"scd-flightrec-v1\""), std::string::npos);
  EXPECT_NE(body.find("\"reason\":\"fatal-signal\""), std::string::npos);
  EXPECT_NE(body.find("\"config_fingerprint\":\"0xfeedface12345678\""),
            std::string::npos);
  // The last observed interval and the provenance record made it in.
  EXPECT_NE(body.find("\"index\":4"), std::string::npos);
  EXPECT_NE(body.find("\"crash\":1"), std::string::npos);
  EXPECT_NE(body.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(body.find("child_interval"), std::string::npos);
}

}  // namespace
}  // namespace scd::obs
