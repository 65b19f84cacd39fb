// Traced run: where one workload's time goes, layer by layer.
//
// 1. The serial ChangeDetectionPipeline runs the stream untraced (the
//    ledger's end-to-end time and the core.* metrics) and with tracing on
//    (the tracing overhead), alternating for the run's --seconds (at least
//    three passes each), and each side reports its median pass.
// 2. The ParallelPipeline runs it untraced, with each thread's CPU time read
//    from outside the pipeline (the ingest.* metrics).
// 3. Each layer's public function runs in isolation on the same stream, in
//    the pipeline's order, one span per call per interval. The layers on
//    the workload's serial path are the ledger's rows; their sum subtracted
//    from the serial end-to-end time is the residual row.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/pipeline.h"
#include "detect/detection.h"
#include "eval/trace_mmap.h"
#include "forecast/runner.h"
#include "host.h"
#include "ingest/parallel_pipeline.h"
#include "obs/trace.h"
#include "runs.h"
#include "sketch/kary_sketch.h"
#include "sketch/mv_sketch.h"
#include "traffic/key_extract.h"
#include "traffic/trace_io.h"

namespace perfbench {

namespace {

namespace core = scd::core;
namespace sketch = scd::sketch;
namespace traffic = scd::traffic;

constexpr std::size_t kBlock = 4096;

/// Reads the cached trace the way the workload's feed does: MappedTrace
/// slices for the large streams, TraceReader::next for the small one.
class TraceSource {
 public:
  TraceSource(const std::string& path, bool mapped) {
    if (mapped) {
      mapped_.emplace(path);
    } else {
      reader_.emplace(path);
    }
  }

  void read(std::span<traffic::FlowRecord> out) {
    if (mapped_) {
      mapped_->decode(next_, out);
    } else {
      for (auto& r : out) {
        if (!reader_->next(r)) throw std::runtime_error("trace ended early");
      }
    }
    next_ += out.size();
  }

 private:
  std::optional<scd::eval::MappedTrace> mapped_;
  std::optional<traffic::TraceReader> reader_;
  std::size_t next_ = 0;
};

struct SerialProbe {
  double wall_s = 0.0;  // read + add_record + flush, whole stream
  double read_s = 0.0;
  double add_s = 0.0;   // add_record calls that close no interval
  std::vector<double> close_s;       // the calls that close one
  std::vector<double> close_faults;  // minor faults of those calls
  AlarmSets alarms;
  bool records_ok = false;
};

SerialProbe serial_probe(const Workload& w, const Input& in) {
  SerialProbe probe;
  core::ChangeDetectionPipeline pipeline(w.config);
  TraceSource source(in.trace_path, w.parallel);
  std::vector<traffic::FlowRecord> block(kBlock);
  const std::size_t n = in.records.size();
  const auto& bounds = in.boundaries;
  const auto close_call = [&](auto&& call) {
    scd::obs::TraceSpan span("core.close", "core");
    const std::uint64_t f0 = thread_minor_faults();
    const auto c0 = Clock::now();
    call();
    probe.close_s.push_back(seconds_between(c0, Clock::now()));
    probe.close_faults.push_back(
        static_cast<double>(thread_minor_faults() - f0));
  };

  scd::obs::TraceSpan feed_span("core.feed", "core");
  const auto t0 = Clock::now();
  std::size_t t = 0;
  for (std::size_t done = 0; done < n;) {
    const std::size_t m = std::min(kBlock, n - done);
    const auto r0 = Clock::now();
    source.read(std::span(block.data(), m));
    probe.read_s += seconds_between(r0, Clock::now());
    std::size_t j = 0;
    while (j < m) {
      const std::size_t end =
          t < bounds.size() && bounds[t] < done + m ? bounds[t] - done : m;
      const auto a0 = Clock::now();
      for (; j < end; ++j) pipeline.add_record(block[j]);
      probe.add_s += seconds_between(a0, Clock::now());
      if (j < m) {
        close_call([&] { pipeline.add_record(block[j]); });
        ++j;
        ++t;
      }
    }
    done += m;
  }
  close_call([&] { pipeline.flush(); });
  probe.wall_s = seconds_between(t0, Clock::now());
  probe.alarms = alarm_sets(pipeline.reports());
  probe.records_ok = pipeline.stats().records == in.record_count;
  return probe;
}

constexpr int kMinSerialRounds = 3;

const SerialProbe& median_pass(std::vector<SerialProbe>& passes) {
  std::sort(passes.begin(), passes.end(),
            [](const SerialProbe& a, const SerialProbe& b) {
              return a.wall_s < b.wall_s;
            });
  return passes[passes.size() / 2];
}

struct ParallelProbe {
  double wall_s = 0.0;
  double flush_s = 0.0;
  double producer_cpu_s = 0.0;
  double merger_cpu_s = 0.0;
  std::vector<double> worker_cpu_s;
  std::uint64_t backpressure_waits = 0;
  AlarmSets alarms;
  bool records_ok = false;
};

ParallelProbe parallel_probe(const Workload& w, const Input& in,
                             std::size_t workers) {
  ParallelProbe probe;
  scd::ingest::ParallelConfig parallel;
  parallel.workers = workers;
  const std::vector<pid_t> before = process_tids();
  scd::ingest::ParallelPipeline pipeline(w.config, parallel);
  // The report callback runs on the merger thread: its thread CPU clock
  // there is the merger's busy time so far.
  std::atomic<pid_t> merger_tid{0};
  std::atomic<double> merger_cpu{0.0};
  pipeline.set_report_callback([&](const core::IntervalReport&) {
    merger_tid.store(current_tid(), std::memory_order_relaxed);
    merger_cpu.store(thread_cpu_s(), std::memory_order_relaxed);
  });
  std::vector<pid_t> spawned;
  for (const pid_t tid : process_tids()) {
    if (!std::binary_search(before.begin(), before.end(), tid)) {
      spawned.push_back(tid);
    }
  }
  std::vector<std::uint64_t> cpu0;
  for (const pid_t tid : spawned) cpu0.push_back(task_cpu_ns(tid));

  const double producer0 = thread_cpu_s();
  const auto t0 = Clock::now();
  for (const auto& r : in.records) pipeline.add_record(r);
  const auto f0 = Clock::now();
  pipeline.flush();
  const auto t1 = Clock::now();
  probe.producer_cpu_s = thread_cpu_s() - producer0;
  probe.wall_s = seconds_between(t0, t1);
  probe.flush_s = seconds_between(f0, t1);
  probe.merger_cpu_s = merger_cpu.load(std::memory_order_relaxed);
  // Callbacks ran on the merger thread; flush() returned after the last.
  const pid_t merger = merger_tid.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < spawned.size(); ++i) {
    if (spawned[i] == merger) continue;
    const std::uint64_t cpu1 = task_cpu_ns(spawned[i]);
    probe.worker_cpu_s.push_back(
        static_cast<double>(cpu1 > cpu0[i] ? cpu1 - cpu0[i] : 0) * 1e-9);
  }
  const auto stats = pipeline.parallel_stats();
  probe.backpressure_waits = stats.backpressure_waits;
  probe.alarms = alarm_sets(pipeline.reports());
  probe.records_ok = stats.records == in.record_count &&
                     stats.shutdown_dropped_records == 0;
  return probe;
}

/// Time, calls and minor faults of one layer's isolated calls; every call
/// is one trace span named after the layer.
struct Layer {
  const char* name;    // span name and ledger row, "<module>.<function>"
  const char* module;  // span category
  double total_s = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t faults = 0;

  template <typename F>
  void time(F&& call) {
    scd::obs::TraceSpan span(name, module);
    const std::uint64_t f0 = thread_minor_faults();
    const auto t0 = Clock::now();
    call();
    total_s += seconds_between(t0, Clock::now());
    faults += thread_minor_faults() - f0;
    ++calls;
  }
};

struct Layers {
  Layer read{"traffic.read", "traffic"};
  Layer hash{"hash.family", "hash"};
  Layer update{"sketch.update", "sketch"};
  Layer mv_update{"sketch.mv_update", "sketch"};
  Layer combine{"sketch.combine", "sketch"};
  Layer step{"forecast.step", "forecast"};
  Layer estimate_f2{"sketch.estimate_f2", "sketch"};
  Layer estimate{"sketch.estimate", "sketch"};
  Layer rank{"detect.rank", "detect"};
  Layer recover{"sketch.recover", "sketch"};
  std::uint64_t keys_estimated = 0;
  std::uint64_t sink = 0;  // keeps isolated results observable
};

/// Runs every layer's public function in isolation, interval by interval.
/// Both sketch families run on every workload so that every per-layer
/// metric is measured everywhere; the ledger keeps only the layers on the
/// workload's own path.
Layers isolate_layers(const Workload& w, const Input& in, std::size_t shards) {
  const core::PipelineConfig& c = w.config;
  if (!traffic::key_fits_32bit(c.key_kind)) {
    throw std::invalid_argument("perfbench layers assume 32-bit keys");
  }
  const auto family = sketch::make_tabulation_family(c.seed, c.h);
  sketch::KarySketch kary(family, c.k);
  sketch::MvSketch mv(family, c.k);
  scd::forecast::ForecastRunner<sketch::KarySketch> kary_runner(c.model, kary);
  scd::forecast::ForecastRunner<sketch::MvSketch> mv_runner(c.model, mv);
  std::vector<sketch::KarySketch> kary_parts(shards, kary);
  std::vector<sketch::MvSketch> mv_parts(shards, mv);
  const bool invertible = c.recovery == core::RecoveryMode::kInvertible;

  Layers layers;
  TraceSource source(in.trace_path, w.parallel);
  std::vector<traffic::FlowRecord> scratch;
  std::vector<sketch::Record> records;
  std::vector<std::vector<sketch::Record>> shard_records(shards);
  std::vector<std::uint64_t> keys;
  std::vector<double> errors;
  std::vector<std::uint64_t> positions;
  std::array<std::uint16_t, sketch::kMaxRows> hashes{};

  for (std::size_t t = 0; t < w.intervals; ++t) {
    const std::size_t first = t == 0 ? 0 : in.boundaries[t - 1];
    const std::size_t last =
        t < in.boundaries.size() ? in.boundaries[t] : in.records.size();
    // Untimed preparation: the interval's (key, update) items, its distinct
    // keys and its shard split (ParallelPipeline's key routing).
    records.clear();
    for (auto& part : shard_records) part.clear();
    for (std::size_t i = first; i < last; ++i) {
      const sketch::Record r{traffic::extract_key(in.records[i], c.key_kind),
                             traffic::extract_update(in.records[i],
                                                     c.update_kind)};
      records.push_back(r);
      shard_records[scd::common::mix64(r.key) % shards].push_back(r);
    }
    keys.clear();
    for (const auto& r : records) keys.push_back(r.key);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    scratch.resize(last - first);
    kary.set_zero();
    mv.set_zero();
    for (std::size_t s = 0; s < shards; ++s) {
      kary_parts[s].set_zero();
      mv_parts[s].set_zero();
      if (invertible) {
        mv_parts[s].update_batch(shard_records[s]);
      } else {
        kary_parts[s].update_batch(shard_records[s]);
      }
    }

    layers.read.time([&] { source.read(scratch); });
    layers.hash.time([&] {
      for (const auto& r : records) {
        family->hash_all(static_cast<std::uint32_t>(r.key), hashes.data());
        layers.sink += hashes[0];
      }
    });
    layers.update.time([&] { kary.update_batch(records); });
    layers.mv_update.time([&] { mv.update_batch(records); });
    const std::vector<double> coeffs(shards, 1.0);
    layers.combine.time([&] {
      if (invertible) {
        std::vector<const sketch::MvSketch*> parts;
        for (const auto& p : mv_parts) parts.push_back(&p);
        layers.sink += sketch::MvSketch::combine(coeffs, parts).width();
      } else {
        std::vector<const sketch::KarySketch*> parts;
        for (const auto& p : kary_parts) parts.push_back(&p);
        layers.sink += sketch::KarySketch::combine(coeffs, parts).width();
      }
    });

    // Forecast on the workload's own sketch family is timed; the other
    // family's runs untimed so that its detection layers have an error
    // sketch to work on.
    std::optional<scd::forecast::ForecastRunner<sketch::KarySketch>::Step> ks;
    std::optional<scd::forecast::ForecastRunner<sketch::MvSketch>::Step> ms;
    if (invertible) {
      layers.step.time([&] { ms = mv_runner.step(mv); });
      ks = kary_runner.step(kary);
    } else {
      layers.step.time([&] { ks = kary_runner.step(kary); });
      ms = mv_runner.step(mv);
    }
    if (!ks || !ms) continue;  // model warm-up: no detection

    double kary_f2 = 0.0;
    double mv_f2 = 0.0;
    if (invertible) {
      layers.estimate_f2.time([&] { mv_f2 = ms->error.estimate_f2(); });
      kary_f2 = ks->error.estimate_f2();
    } else {
      layers.estimate_f2.time([&] { kary_f2 = ks->error.estimate_f2(); });
      mv_f2 = ms->error.estimate_f2();
    }
    layers.sink += static_cast<std::uint64_t>(kary_f2 > 0.0);

    errors.resize(keys.size());
    layers.estimate.time([&] {
      for (std::size_t i = 0; i < keys.size(); ++i) {
        errors[i] = ks->error.estimate(keys[i]);
      }
    });
    layers.keys_estimated += keys.size();
    // Rank by position so the ranking reads the errors just estimated
    // instead of estimating again.
    positions.resize(keys.size());
    std::iota(positions.begin(), positions.end(), std::uint64_t{0});
    layers.rank.time([&] {
      const auto ranked = scd::detect::rank_by_abs_error(
          positions, [&](std::uint64_t p) { return errors[p]; });
      layers.sink += ranked.empty() ? 0 : ranked.front().key;
    });
    const double cut = c.threshold * std::sqrt(std::max(mv_f2, 0.0));
    layers.recover.time([&] {
      layers.sink += ms->error.recover_heavy_keys(cut).size();
    });
  }
  return layers;
}

double ns_per(const Layer& layer, std::uint64_t units) {
  return units == 0 ? 0.0 : layer.total_s / static_cast<double>(units) * 1e9;
}

double per_call_ms(const Layer& layer) {
  return layer.calls == 0 ? 0.0
                          : layer.total_s / static_cast<double>(layer.calls) * 1e3;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

}  // namespace

RunResult run_traced(const RunOptions& options, const Input& input) {
  const Workload& w = options.workload;
  const bool invertible = w.config.recovery == core::RecoveryMode::kInvertible;
  auto& tracer = scd::obs::TraceController::global();
  tracer.set_ring_capacity(1 << 16);
  RunResult result;
  const auto check = [&](const AlarmSets& alarms, bool records_ok) {
    result.attempted += input.reference.size();
    result.failed +=
        failed_intervals(alarms, input.reference, options.committed);
    result.sound = result.sound && records_ok;
  };

  // Untraced and traced serial passes alternate after one warm-up pass;
  // each side reports its median pass, so neither pays for cold caches.
  const SerialProbe warmup = serial_probe(w, input);
  check(warmup.alarms, warmup.records_ok);
  std::vector<SerialProbe> plain_passes;
  std::vector<SerialProbe> traced_passes;
  const auto start = Clock::now();
  for (int round = 0; round < kMinSerialRounds ||
                     seconds_between(start, Clock::now()) < options.seconds;
       ++round) {
    plain_passes.push_back(serial_probe(w, input));
    tracer.set_enabled(true);
    traced_passes.push_back(serial_probe(w, input));
    tracer.set_enabled(false);
  }
  for (const auto* passes : {&plain_passes, &traced_passes}) {
    for (const SerialProbe& p : *passes) check(p.alarms, p.records_ok);
  }
  const SerialProbe& serial = median_pass(plain_passes);
  const SerialProbe& traced = median_pass(traced_passes);
  const ParallelProbe parallel = parallel_probe(w, input, options.workers);
  check(parallel.alarms, parallel.records_ok);
  tracer.set_enabled(true);
  const Layers layers = isolate_layers(w, input, options.workers);
  tracer.set_enabled(false);

  // The ledger: layers on the serial path, then the residual.
  std::vector<const Layer*> rows = {&layers.read};
  if (invertible) {
    rows.insert(rows.end(), {&layers.mv_update, &layers.step,
                             &layers.estimate_f2, &layers.recover});
  } else {
    rows.insert(rows.end(), {&layers.update, &layers.step,
                             &layers.estimate_f2, &layers.estimate,
                             &layers.rank});
  }
  double layered_s = 0.0;
  const Layer* largest = rows.front();
  for (const Layer* row : rows) {
    layered_s += row->total_s;
    if (row->total_s > largest->total_s) largest = row;
  }
  const double residual_s = serial.wall_s - layered_s;
  const double n = static_cast<double>(input.record_count);
  const double pct = 100.0 / serial.wall_s;

  std::ostringstream ledger;
  ledger << "{\n  \"workload\": \"" << w.name << "\",\n  \"seed\": "
         << options.seed << ",\n  \"host\": "
         << host_facts_json(options.workers) << ",\n  \"records\": "
         << input.record_count << ",\n  \"intervals\": " << w.intervals
         << ",\n  \"serial_end_to_end_ms\": " << serial.wall_s * 1e3
         << ",\n  \"rows\": [\n";
  for (const Layer* row : rows) {
    ledger << "    {\"layer\": " << quoted(row->name)
           << ", \"ms\": " << row->total_s * 1e3
           << ", \"ns_per_record\": " << row->total_s / n * 1e9
           << ", \"pct\": " << row->total_s * pct
           << ", \"calls\": " << row->calls
           << ", \"minor_faults\": " << row->faults << "},\n";
  }
  ledger << "    {\"layer\": \"residual\", \"ms\": " << residual_s * 1e3
         << ", \"ns_per_record\": " << residual_s / n * 1e9
         << ", \"pct\": " << residual_s * pct << "}\n  ],\n"
         << "  \"largest_row\": " << quoted(largest->name) << ",\n"
         << "  \"off_path\": [";
  // Measured on this stream but not on this workload's serial path: the
  // other recovery mode's layers, the hash family (inside UPDATE) and the
  // shard COMBINE (ParallelPipeline only).
  std::vector<const Layer*> off = {&layers.hash, &layers.combine};
  if (invertible) {
    off.insert(off.end(), {&layers.update, &layers.estimate, &layers.rank});
  } else {
    off.insert(off.end(), {&layers.mv_update, &layers.recover});
  }
  for (std::size_t i = 0; i < off.size(); ++i) {
    ledger << (i == 0 ? "\n" : ",\n") << "    {\"layer\": "
           << quoted(off[i]->name)
           << ", \"ms\": " << off[i]->total_s * 1e3
           << ", \"calls\": " << off[i]->calls << "}";
  }
  ledger << "\n  ],\n  \"spans\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ledger << (i == 0 ? "" : ", ") << quoted(rows[i]->name);
  }
  for (const Layer* layer : off) {
    ledger << ", " << quoted(layer->name);
  }
  ledger << ", \"core.feed\", \"core.close\"],\n  \"checksum\": "
         << layers.sink << "\n}\n";

  std::filesystem::create_directories(options.out_dir);
  const std::string base = options.out_dir + "/" + w.name;
  {
    std::ofstream out(base + "-ledger.json");
    out << ledger.str();
    if (!out) throw std::runtime_error("cannot write " + base + "-ledger.json");
  }
  {
    std::ofstream out(base + "-trace.json");
    out << scd::obs::to_chrome_trace(tracer.snapshot());
    if (!out) throw std::runtime_error("cannot write " + base + "-trace.json");
  }

  std::vector<double> worker_busy;
  for (const double cpu : parallel.worker_cpu_s) {
    worker_busy.push_back(cpu / parallel.wall_s * 100.0);
  }
  const double closes = static_cast<double>(serial.close_s.size());
  const double serial_feed_s = serial.wall_s - serial.read_s;
  result.metrics = {
      {"ingest.merger_busy_pct", parallel.merger_cpu_s / parallel.wall_s * 100.0,
       "%"},
      {"ingest.worker_busy_pct", mean(worker_busy), "%"},
      {"ingest.producer_busy_pct",
       parallel.producer_cpu_s / parallel.wall_s * 100.0, "%"},
      {"ingest.add_ns_per_record", parallel.producer_cpu_s / n * 1e9, "ns"},
      {"ingest.backpressure_waits",
       static_cast<double>(parallel.backpressure_waits), "count"},
      {"ingest.flush_ms", parallel.flush_s * 1e3, "ms"},
      {"ingest.speedup_vs_serial", serial_feed_s / parallel.wall_s, "x"},
      {"core.add_ns_per_record",
       serial.add_s / (n - (closes - 1.0)) * 1e9, "ns"},
      {"core.close_ms_per_interval",
       std::accumulate(serial.close_s.begin(), serial.close_s.end(), 0.0) /
           closes * 1e3,
       "ms"},
      {"core.minor_faults_per_interval", mean(serial.close_faults), "count"},
      {"traffic.read_ns_per_record", ns_per(layers.read, input.record_count),
       "ns"},
      {"hash.ns_per_key", ns_per(layers.hash, input.record_count), "ns"},
      {"sketch.update_ns_per_record",
       ns_per(layers.update, input.record_count), "ns"},
      {"sketch.mv_update_ns_per_record",
       ns_per(layers.mv_update, input.record_count), "ns"},
      {"sketch.estimate_ns_per_key",
       ns_per(layers.estimate, layers.keys_estimated), "ns"},
      {"detect.rank_ns_per_key", ns_per(layers.rank, layers.keys_estimated),
       "ns"},
      {"sketch.recover_ms_per_interval", per_call_ms(layers.recover), "ms"},
      {"sketch.combine_ms_per_interval", per_call_ms(layers.combine), "ms"},
      {"forecast.step_ms_per_interval", per_call_ms(layers.step), "ms"},
      {"forecast.minor_faults_per_step",
       static_cast<double>(layers.step.faults) /
           static_cast<double>(layers.step.calls),
       "count"},
      {"sketch.estimate_f2_ms_per_interval", per_call_ms(layers.estimate_f2),
       "ms"},
      {"ledger.residual_pct", residual_s * pct, "%"},
      {"ledger.trace_overhead_pct",
       (traced.wall_s - serial.wall_s) / serial.wall_s * 100.0, "%"},
  };
  std::ostringstream note;
  note << "ledger " << base << "-ledger.json: serial " << serial.wall_s * 1e3
       << " ms, largest row " << largest->name << " ("
       << largest->total_s * pct << "%), residual " << residual_s * pct
       << "%; trace " << base << "-trace.json";
  result.notes.push_back(note.str());
  return result;
}

}  // namespace perfbench
