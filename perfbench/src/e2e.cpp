// Untraced end-to-end run. Load is closed loop: the main thread feeds
// records as fast as add_record returns, and backpressure is the
// pipeline's own. Every pass builds a fresh pipeline, so each pass gives
// one set-up time, one throughput and one peak, and every interval of every
// pass gives one close latency.
#include <limits>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "host.h"
#include "ingest/parallel_pipeline.h"
#include "runs.h"
#include "traffic/trace_io.h"

namespace perfbench {

namespace {

namespace core = scd::core;

struct Pass {
  double setup_s = 0.0;
  double feed_s = 0.0;  // first record to the return of flush()
  double cpu_s = 0.0;   // process CPU over the same window
  double peak_mb = 0.0;
  bool peak_reset = false;
  std::vector<double> close_ms;  // per interval
  AlarmSets alarms;
  bool records_ok = false;  // accepted == generated, nothing dropped
};

/// Per-interval clocks: when the producer hands over the first record past
/// t (or calls flush() for the last), and when t's report arrives.
struct CloseClock {
  explicit CloseClock(std::size_t intervals)
      : handover(intervals), reported(intervals) {}

  void on_report(const core::IntervalReport& report) {
    if (report.index < reported.size()) reported[report.index] = Clock::now();
  }

  [[nodiscard]] std::vector<double> latencies_ms() const {
    std::vector<double> ms;
    for (std::size_t t = 0; t < handover.size(); ++t) {
      ms.push_back(seconds_between(handover[t], reported[t]) * 1e3);
    }
    return ms;
  }

  std::vector<Clock::time_point> handover;
  std::vector<Clock::time_point> reported;
};

Pass parallel_pass(const Workload& w, const Input& in, std::size_t workers) {
  Pass pass;
  CloseClock clock(w.intervals);
  pass.peak_reset = reset_peak_rss();
  scd::ingest::ParallelConfig parallel;
  parallel.workers = workers;

  const auto s0 = Clock::now();
  scd::ingest::ParallelPipeline pipeline(w.config, parallel);
  pipeline.set_report_callback(
      [&clock](const core::IntervalReport& r) { clock.on_report(r); });
  pass.setup_s = seconds_between(s0, Clock::now());

  const std::uint64_t rss0 = rss_bytes();
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  const auto& records = in.records;
  std::size_t i = 0;
  for (std::size_t t = 0; t < in.boundaries.size(); ++t) {
    for (; i < in.boundaries[t]; ++i) pipeline.add_record(records[i]);
    clock.handover[t] = Clock::now();
  }
  for (; i < records.size(); ++i) pipeline.add_record(records[i]);
  clock.handover.back() = Clock::now();
  pipeline.flush();
  pass.feed_s = seconds_between(t0, Clock::now());
  pass.cpu_s = process_cpu_s() - cpu0;
  pass.peak_mb = static_cast<double>(hwm_bytes() - rss0) / (1024.0 * 1024.0);

  pass.close_ms = clock.latencies_ms();
  pass.alarms = alarm_sets(pipeline.reports());
  const auto stats = pipeline.parallel_stats();
  pass.records_ok = stats.records == in.record_count &&
                    stats.shutdown_dropped_records == 0;
  return pass;
}

Pass serial_pass(const Workload& w, const Input& in) {
  Pass pass;
  CloseClock clock(w.intervals);
  pass.peak_reset = reset_peak_rss();

  const auto s0 = Clock::now();
  core::ChangeDetectionPipeline pipeline(w.config);
  pipeline.set_report_callback(
      [&clock](const core::IntervalReport& r) { clock.on_report(r); });
  scd::traffic::TraceReader reader(in.trace_path);
  pass.setup_s = seconds_between(s0, Clock::now());

  const std::uint64_t rss0 = rss_bytes();
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  scd::traffic::FlowRecord record;
  std::uint64_t read = 0;
  std::size_t t = 0;
  std::size_t next_boundary = in.boundaries.empty()
                                  ? std::numeric_limits<std::size_t>::max()
                                  : in.boundaries[0];
  while (reader.next(record)) {
    if (read == next_boundary) {
      clock.handover[t++] = Clock::now();
      next_boundary = t < in.boundaries.size()
                          ? in.boundaries[t]
                          : std::numeric_limits<std::size_t>::max();
    }
    pipeline.add_record(record);
    ++read;
  }
  clock.handover.back() = Clock::now();
  pipeline.flush();
  pass.feed_s = seconds_between(t0, Clock::now());
  pass.cpu_s = process_cpu_s() - cpu0;
  pass.peak_mb = static_cast<double>(hwm_bytes() - rss0) / (1024.0 * 1024.0);

  pass.close_ms = clock.latencies_ms();
  pass.alarms = alarm_sets(pipeline.reports());
  pass.records_ok =
      read == in.record_count && pipeline.stats().records == in.record_count;
  return pass;
}

}  // namespace

RunResult run_end_to_end(const RunOptions& options, const Input& input) {
  const Workload& w = options.workload;
  const auto run_pass = [&] {
    return w.parallel ? parallel_pass(w, input, options.workers)
                      : serial_pass(w, input);
  };

  RunResult result;
  // One uncounted pass first: code pages, the allocator and the page cache
  // warm up here rather than in the first measured pass.
  const Pass warmup = run_pass();

  std::vector<double> setup, throughput, cpu_ns, peak, close_ms;
  const auto start = Clock::now();
  std::size_t passes = 0;
  while (passes < 3 || seconds_between(start, Clock::now()) < options.seconds) {
    const Pass pass = run_pass();
    ++passes;
    const double n = static_cast<double>(input.record_count);
    setup.push_back(pass.setup_s);
    throughput.push_back(n / pass.feed_s / 1e6);
    cpu_ns.push_back(pass.cpu_s / n * 1e9);
    if (pass.peak_reset) peak.push_back(pass.peak_mb);
    close_ms.insert(close_ms.end(), pass.close_ms.begin(), pass.close_ms.end());
    result.attempted += input.reference.size();
    result.failed +=
        failed_intervals(pass.alarms, input.reference, options.committed);
    result.sound = result.sound && pass.records_ok;
  }
  // Without a peak reset VmHWM is the process's lifetime peak; only the
  // first pass's reading is then its own.
  if (peak.empty()) peak.push_back(warmup.peak_mb);

  result.metrics = {
      {"throughput_mrps", quantile(throughput, 0.5), "Mrec/s"},
      {"close_latency_p50_ms", quantile(close_ms, 0.5), "ms"},
      {"cpu_ns_per_record", quantile(cpu_ns, 0.5), "ns"},
      {"peak_mem_mb", quantile(peak, 0.5), "MB"},
      {"setup_s", quantile(setup, 0.5), "s"},
  };
  result.notes.push_back(
      "passes " + std::to_string(passes) + ", closed intervals " +
      std::to_string(close_ms.size()) + ", close latency p90 ms " +
      std::to_string(quantile(close_ms, 0.9)) + " (" +
      std::to_string(close_ms.size() / 10) + " samples beyond it), records " +
      "per pass " + std::to_string(input.record_count));
  std::string per_pass = "per-pass Mrec/s";
  for (const double v : throughput) per_pass += " " + std::to_string(v);
  per_pass += "; peak MB";
  for (const double v : peak) per_pass += " " + std::to_string(v);
  result.notes.push_back(per_pass);
  return result;
}

}  // namespace perfbench
