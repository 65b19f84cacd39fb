// detect_cli — command-line change detector over trace files.
//
//   detect_cli <trace.scdt> [--interval 300] [--model ewma|nshw|shw|ma|sma|
//              arima0|arima1] [--alpha 0.5] [--beta 0.5] [--gamma 0.5]
//              [--period 24] [--window 5] [--h 5] [--k 32768]
//              [--threshold 0.05] [--key dst|src|pair] [--update bytes|
//              packets|records] [--online] [--sample 1.0] [--top 10]
//              [--metrics prom|json] [--checkpoint-dir DIR]
//              [--checkpoint-every N] [--restore] [--explain]
//              [--trace-out FILE] [--flight-recorder-dir DIR]
//
// Reads a binary trace (see trace_inspect to create one), runs the
// sketch-based change-detection pipeline, and prints one line per alarm.
// With --metrics, the run's observability snapshot (Prometheus text or
// JSON; see docs/OBSERVABILITY.md) plus a stage-budget table follow the
// alarm listing. With --checkpoint-dir, the pipeline snapshots its state
// every N interval closes (docs/CHECKPOINT.md); --restore resumes from the
// newest valid checkpoint, skipping trace records the snapshot already
// consumed so the remaining output matches an uninterrupted run. With
// --explain, every alarm is followed by one "PROVENANCE {json}" line
// carrying the full evidence chain (docs/OBSERVABILITY.md). --trace-out
// writes the run's span trace as Chrome trace-event JSON (loadable in
// Perfetto); --flight-recorder-dir arms the crash/alarm flight recorder.
#include <cstdio>
#include <optional>
#include <string>

#include "checkpoint/checkpoint.h"
#include "common/atomic_file.h"
#include "common/flags.h"
#include "common/strutil.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "detect/provenance.h"
#include "eval/stage_budget.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/pipeline_metrics.h"
#include "obs/trace.h"
#include "traffic/csv_import.h"
#include "traffic/trace_io.h"

namespace {

using namespace scd;

bool model_from_flags(const common::FlagParser& flags,
                      forecast::ModelConfig& model, std::string& error) {
  const std::string name = flags.get("model");
  if (name == "ewma") {
    model.kind = forecast::ModelKind::kEwma;
  } else if (name == "nshw") {
    model.kind = forecast::ModelKind::kHoltWinters;
  } else if (name == "shw") {
    model.kind = forecast::ModelKind::kSeasonalHoltWinters;
  } else if (name == "ma") {
    model.kind = forecast::ModelKind::kMovingAverage;
  } else if (name == "sma") {
    model.kind = forecast::ModelKind::kSShapedMA;
  } else if (name == "arima0") {
    model.kind = forecast::ModelKind::kArima0;
  } else if (name == "arima1") {
    model.kind = forecast::ModelKind::kArima1;
    model.arima.d = 1;
  } else {
    error = "unknown --model: " + name;
    return false;
  }
  model.alpha = flags.get_double("alpha").value_or(0.5);
  model.beta = flags.get_double("beta").value_or(0.5);
  model.gamma = flags.get_double("gamma").value_or(0.5);
  model.period = static_cast<std::size_t>(flags.get_int("period").value_or(24));
  model.window = static_cast<std::size_t>(flags.get_int("window").value_or(5));
  if (model.kind == forecast::ModelKind::kArima0 ||
      model.kind == forecast::ModelKind::kArima1) {
    // A sensible default AR(1) (d from kind); full ARIMA tuning belongs to
    // grid search, not flags.
    model.arima.p = 1;
    model.arima.q = 0;
    model.arima.ar = {0.6, 0.0};
  }
  if (!model.valid()) {
    error = "invalid model parameters: " + model.to_string();
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  common::FlagParser flags;
  flags.add_flag("interval", "detection interval in seconds", "300");
  flags.add_flag("model", "forecast model", "ewma");
  flags.add_flag("alpha", "smoothing parameter", "0.5");
  flags.add_flag("beta", "trend parameter (nshw/shw)", "0.5");
  flags.add_flag("gamma", "seasonal parameter (shw)", "0.5");
  flags.add_flag("period", "season length in intervals (shw)", "24");
  flags.add_flag("window", "window size (ma/sma)", "5");
  flags.add_flag("h", "number of hash functions", "5");
  flags.add_flag("k", "buckets per row (power of two)", "32768");
  flags.add_flag("threshold", "alarm threshold T (fraction of error L2)",
                 "0.05");
  flags.add_flag("key", "flow key: dst, src, or pair", "dst");
  flags.add_flag("update", "update value: bytes, packets, records", "bytes");
  flags.add_flag("online", "use next-interval key replay", "");
  flags.add_flag("sample", "key sampling rate (0,1]", "1.0");
  flags.add_flag("top", "max alarms printed per interval", "10");
  flags.add_flag("randomize-intervals", "randomize interval lengths (§6)", "");
  flags.add_flag("csv", "input is CSV (time,src,dst,sport,dport,proto,"
                 "packets,bytes) instead of .scdt", "");
  flags.add_flag("metrics",
                 "print observability snapshot after the run: prom or json",
                 "");
  flags.add_flag("checkpoint-dir",
                 "directory for atomic state snapshots (docs/CHECKPOINT.md)",
                 "");
  flags.add_flag("checkpoint-every", "snapshot every N interval closes", "1");
  flags.add_flag("restore",
                 "resume from the newest valid checkpoint in "
                 "--checkpoint-dir before reading the trace", "");
  flags.add_flag("explain",
                 "print one 'PROVENANCE {json}' evidence line per alarm", "");
  flags.add_flag("trace-out",
                 "write span trace as Chrome trace-event JSON to FILE", "");
  flags.add_flag("flight-recorder-dir",
                 "arm the flight recorder; dumps land in DIR "
                 "(docs/OBSERVABILITY.md)", "");

  const bool parsed = flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::printf("%s", flags.help("detect_cli <trace.scdt> [flags]").c_str());
    return 0;
  }
  if (!parsed || flags.positional().size() != 1) {
    std::fprintf(stderr, "%s%s\n", flags.error().c_str(),
                 flags.help("detect_cli <trace.scdt> [flags]").c_str());
    return 2;
  }

  core::PipelineConfig config;
  config.interval_s = flags.get_double("interval").value_or(300.0);
  config.h = static_cast<std::size_t>(flags.get_int("h").value_or(5));
  config.k = static_cast<std::size_t>(flags.get_int("k").value_or(32768));
  config.threshold = flags.get_double("threshold").value_or(0.05);
  config.key_sample_rate = flags.get_double("sample").value_or(1.0);
  config.max_alarms_per_interval =
      static_cast<std::size_t>(flags.get_int("top").value_or(10));
  if (flags.get_bool("online")) {
    config.replay = core::KeyReplayMode::kNextInterval;
  }
  config.randomize_intervals = flags.get_bool("randomize-intervals");

  const std::string key = flags.get("key");
  if (key == "src") {
    config.key_kind = traffic::KeyKind::kSrcIp;
  } else if (key == "pair") {
    config.key_kind = traffic::KeyKind::kSrcDstPair;
  } else if (key != "dst") {
    std::fprintf(stderr, "unknown --key: %s\n", key.c_str());
    return 2;
  }
  const std::string update = flags.get("update");
  if (update == "packets") {
    config.update_kind = traffic::UpdateKind::kPackets;
  } else if (update == "records") {
    config.update_kind = traffic::UpdateKind::kRecords;
  } else if (update != "bytes") {
    std::fprintf(stderr, "unknown --update: %s\n", update.c_str());
    return 2;
  }

  const std::string metrics = flags.get("metrics");
  if (!metrics.empty() && metrics != "prom" && metrics != "json") {
    std::fprintf(stderr, "unknown --metrics format: %s (want prom or json)\n",
                 metrics.c_str());
    return 2;
  }

  std::string error;
  if (!model_from_flags(flags, config.model, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }

  const std::string checkpoint_dir = flags.get("checkpoint-dir");
  if (flags.get_bool("restore") && checkpoint_dir.empty()) {
    std::fprintf(stderr, "--restore requires --checkpoint-dir\n");
    return 2;
  }

  const std::string trace_out = flags.get("trace-out");
  const std::string flightrec_dir = flags.get("flight-recorder-dir");
  const bool explain = flags.get_bool("explain");

  try {
    config.validate();
    if (!trace_out.empty() || !flightrec_dir.empty()) {
      obs::TraceController::global().set_enabled(true);
    }
    std::optional<obs::FlightRecorder> recorder;
    if (!flightrec_dir.empty()) {
      obs::FlightRecorder::Options options;
      options.directory = flightrec_dir;
      recorder.emplace(options);
      recorder->set_config_fingerprint(core::config_fingerprint(config));
      obs::FlightRecorder::set_global(&*recorder);
      obs::FlightRecorder::install_fatal_signal_handlers();
    }
    core::ChangeDetectionPipeline pipeline(config);

    // Restore must precede set_report_callback: recover() replaces the
    // pipeline wholesale, which would drop callbacks installed earlier.
    double resume_before_s = 0.0;
    if (flags.get_bool("restore")) {
      const checkpoint::RecoverResult recovered =
          checkpoint::recover(checkpoint_dir, pipeline);
      if (recovered.restored) {
        resume_before_s = pipeline.position().next_interval_start_s;
        std::fprintf(stderr,
                     "restored %s (interval %llu, %zu corrupt skipped); "
                     "resuming at t >= %.0f s\n",
                     recovered.path.string().c_str(),
                     static_cast<unsigned long long>(recovered.interval_index),
                     recovered.skipped, resume_before_s);
      } else {
        std::fprintf(stderr,
                     "no valid checkpoint in %s; starting from scratch\n",
                     checkpoint_dir.c_str());
      }
    }

    std::optional<checkpoint::CheckpointWriter> writer;
    if (!checkpoint_dir.empty()) {
      checkpoint::CheckpointWriterOptions options;
      options.directory = checkpoint_dir;
      options.every = static_cast<std::size_t>(
          flags.get_int("checkpoint-every").value_or(1));
      writer.emplace(options, config);
      writer->attach(pipeline);
    }

    if (explain || recorder.has_value()) {
      pipeline.set_alarm_provenance_callback(
          [&recorder, explain](const detect::AlarmProvenance& prov) {
            const std::string json = detect::to_json(prov);
            if (explain) std::printf("PROVENANCE %s\n", json.c_str());
            if (recorder.has_value()) recorder->observe_provenance(json);
          });
    }

    pipeline.set_report_callback([&config,
                                  &recorder](const core::IntervalReport& r) {
      if (recorder.has_value()) {
        obs::FlightIntervalSummary summary;
        summary.index = r.index;
        summary.start_s = static_cast<std::uint64_t>(r.start_s);
        summary.end_s = static_cast<std::uint64_t>(r.end_s);
        summary.records = r.records;
        summary.detection_ran = r.detection_ran;
        summary.estimated_error_f2 = r.estimated_error_f2;
        summary.alarm_threshold = r.alarm_threshold;
        summary.alarms = r.alarms.size();
        recorder->observe_interval(summary);
      }
      if (!r.detection_ran || r.alarms.empty()) return;
      std::printf("[%8.0f s] %zu alarm(s), threshold=%.4g\n", r.start_s,
                  r.alarms.size(), r.alarm_threshold);
      for (const auto& alarm : r.alarms) {
        if (config.key_kind == traffic::KeyKind::kSrcDstPair) {
          std::printf("  %s -> %s : %+.4g\n",
                      common::ipv4_to_string(
                          static_cast<std::uint32_t>(alarm.key >> 32))
                          .c_str(),
                      common::ipv4_to_string(
                          static_cast<std::uint32_t>(alarm.key))
                          .c_str(),
                      alarm.error);
        } else {
          std::printf("  %-16s : %+.4g\n",
                      common::ipv4_to_string(
                          static_cast<std::uint32_t>(alarm.key))
                          .c_str(),
                      alarm.error);
        }
      }
    });

    // After a restore, records before the snapshot's interval boundary were
    // already consumed by the checkpointed run — skip them.
    std::uint64_t records = 0;
    std::uint64_t skipped = 0;
    const common::Stopwatch feed_watch;  // the stage budget's wall time
    const auto feed = [&](const traffic::FlowRecord& record) {
      if (traffic::record_time_s(record) < resume_before_s) {
        ++skipped;
        return;
      }
      pipeline.add_record(record);
      ++records;
    };
    if (flags.get_bool("csv")) {
      for (const auto& record :
           traffic::read_flow_csv_file(flags.positional()[0])) {
        feed(record);
      }
    } else {
      traffic::TraceReader reader(flags.positional()[0]);
      traffic::FlowRecord record;
      while (reader.next(record)) feed(record);
    }
    if (skipped > 0) {
      std::fprintf(stderr, "skipped %llu already-checkpointed record(s)\n",
                   static_cast<unsigned long long>(skipped));
    }
    pipeline.flush();
    const double feed_s = feed_watch.seconds();
    std::printf("\nprocessed %llu records in %zu intervals with %s\n",
                static_cast<unsigned long long>(records),
                pipeline.reports().size(),
                pipeline.config().model.to_string().c_str());
    if (!metrics.empty()) {
      std::printf("\n%s", scd::eval::format_stage_budget(
                               obs::PipelineInstruments::global(),
                               pipeline.stats(), feed_s)
                               .c_str());
      std::printf("\n%s",
                  metrics == "json"
                      ? obs::to_json(obs::MetricsRegistry::global()).c_str()
                      : obs::to_prometheus(obs::MetricsRegistry::global())
                            .c_str());
    }
    if (recorder.has_value()) recorder->flush();
    if (!trace_out.empty()) {
      const std::string chrome =
          obs::to_chrome_trace(obs::TraceController::global().snapshot());
      // Flush buffered PROVENANCE/report lines first so a merged 2>&1
      // capture cannot interleave this notice mid-line.
      std::fflush(stdout);
      std::string write_error;
      if (!common::write_file_atomic(trace_out, chrome, write_error)) {
        std::fprintf(stderr, "trace export failed: %s\n", write_error.c_str());
        return 1;
      }
      std::fprintf(stderr, "trace written to %s\n", trace_out.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
