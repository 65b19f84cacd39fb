#include "workload.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/random.h"
#include "eval/trace_mmap.h"
#include "traffic/synthetic.h"
#include "traffic/trace_io.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace core = scd::core;
namespace traffic = scd::traffic;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Unique within the machine: the pid separates processes, the counter
/// separates files of one process.
std::string temp_name(const std::string& final_path) {
  static std::atomic<unsigned> counter{0};
  return final_path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1));
}

/// The stream: Zipf 1.0 popularity with a diurnal drift, plus four
/// seed-placed anomalies (two DoS surges, a flash crowd and an outage of the
/// top destinations) after the first two intervals, so every forecast model
/// is warm when the first one starts.
traffic::SyntheticConfig stream_config(const Workload& w, std::uint64_t seed) {
  const double interval_s = w.config.interval_s;
  const double duration_s = interval_s * static_cast<double>(w.intervals);
  traffic::SyntheticConfig c;
  c.seed = seed;
  c.duration_s = duration_s;
  c.base_rate = w.records_per_interval / interval_s;
  c.num_hosts = w.hosts;
  c.zipf_exponent = 1.0;
  // One whole diurnal cycle per stream, so the mean rate is the base rate.
  c.diurnal_period_s = duration_s;
  scd::common::Rng rng(seed ^ 0xa11ce5eedULL);
  const auto start = [&](double length_intervals) {
    const double earliest = 2.0 * interval_s;
    const double latest = duration_s - length_intervals * interval_s;
    return std::max(earliest, rng.uniform(earliest, latest));
  };
  const auto rank = [&](std::size_t lo, std::size_t hi) {
    return static_cast<std::size_t>(rng.next_in(
        static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
  };
  for (int i = 0; i < 2; ++i) {
    traffic::AnomalySpec dos;
    dos.kind = traffic::AnomalyKind::kDosAttack;
    dos.start_s = start(1.0);
    dos.duration_s = interval_s;
    dos.magnitude = 0.05 * c.base_rate;
    dos.target_rank = rank(100, 2000);
    c.anomalies.push_back(dos);
  }
  traffic::AnomalySpec crowd;
  crowd.kind = traffic::AnomalyKind::kFlashCrowd;
  crowd.start_s = start(2.0);
  crowd.duration_s = 2.0 * interval_s;
  crowd.magnitude = 0.05 * c.base_rate;
  crowd.target_rank = rank(20, 500);
  c.anomalies.push_back(crowd);
  traffic::AnomalySpec outage;
  outage.kind = traffic::AnomalyKind::kOutage;
  outage.start_s = start(1.0);
  outage.duration_s = interval_s;
  outage.magnitude = 0.9;
  outage.target_rank = 3;
  c.anomalies.push_back(outage);
  return c;
}

std::string ensure_trace(const Workload& w, std::uint64_t seed,
                         const std::string& cache_dir, double* generate_s) {
  const std::string path =
      cache_dir + "/" + w.stream + "-" + std::to_string(seed) + ".scdt";
  *generate_s = 0.0;
  if (fs::exists(path)) return path;
  const auto t0 = std::chrono::steady_clock::now();
  traffic::SyntheticTraceGenerator generator(stream_config(w, seed));
  const std::vector<traffic::FlowRecord> records = generator.generate();
  const std::string tmp = temp_name(path);
  traffic::write_trace(tmp, records);
  fs::rename(tmp, path);
  *generate_s = seconds_since(t0);
  return path;
}

void write_alarm_sets(const std::string& path, const AlarmSets& sets) {
  const std::string tmp = temp_name(path);
  {
    std::ofstream out(tmp);
    out << sets.size() << '\n';
    for (const auto& keys : sets) {
      out << keys.size();
      for (const std::uint64_t k : keys) out << ' ' << k;
      out << '\n';
    }
    if (!out) throw std::runtime_error("cannot write " + tmp);
  }
  fs::rename(tmp, path);
}

AlarmSets read_alarm_sets(const std::string& path) {
  std::ifstream in(path);
  std::size_t n = 0;
  if (!(in >> n)) throw std::runtime_error("cannot read " + path);
  AlarmSets sets(n);
  for (auto& keys : sets) {
    std::size_t m = 0;
    if (!(in >> m)) throw std::runtime_error("truncated " + path);
    keys.resize(m);
    for (auto& k : keys) {
      if (!(in >> k)) throw std::runtime_error("truncated " + path);
    }
  }
  return sets;
}

AlarmSets compute_reference(const Workload& w,
                            const std::vector<traffic::FlowRecord>& records) {
  core::ChangeDetectionPipeline pipeline(w.config);
  for (const auto& r : records) pipeline.add_record(r);
  pipeline.flush();
  return alarm_sets(pipeline.reports());
}

/// Index of the first record of every interval after the first, computed
/// with the pipelines' own interval arithmetic (the first record opens
/// interval 0 at its timestamp).
std::vector<std::size_t> interval_boundaries(
    const std::vector<traffic::FlowRecord>& records, double interval_s) {
  std::vector<std::size_t> boundaries;
  if (records.empty()) return boundaries;
  double start = traffic::record_time_s(records.front());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const double t = traffic::record_time_s(records[i]);
    while (t >= start + interval_s) {
      boundaries.push_back(i);
      start += interval_s;
    }
  }
  return boundaries;
}

}  // namespace

Workload make_workload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  core::PipelineConfig& c = w.config;
  c.h = 5;
  c.key_kind = traffic::KeyKind::kDstIp;
  c.update_kind = traffic::UpdateKind::kBytes;
  if (name == "large_replay" || name == "large_invertible") {
    // §4: a large router, ~1M records per 5-min interval at full scale.
    w.stream = tiny ? "large-tiny" : "large";
    w.intervals = tiny ? 6 : 12;
    w.records_per_interval = tiny ? 20000.0 : 500000.0;
    w.hosts = tiny ? 50000 : 1000000;
    w.parallel = true;
    // The merger bounds replay; the workers bound invertible recovery.
    w.spare_cores = name == "large_replay" ? 0 : 1;
    c.interval_s = 300.0;
    c.k = 32768;
    c.recovery = name == "large_replay" ? core::RecoveryMode::kReplay
                                        : core::RecoveryMode::kInvertible;
  } else if (name == "small_arima") {
    // A small router cut into 1-min intervals, with the paper's ARIMA1.
    w.stream = tiny ? "small-tiny" : "small";
    w.intervals = tiny ? 12 : 40;
    w.records_per_interval = tiny ? 1000.0 : 5000.0;
    w.hosts = tiny ? 5000 : 20000;
    w.parallel = false;
    c.interval_s = 60.0;
    c.k = 65536;
    c.model.kind = scd::forecast::ModelKind::kArima1;
    c.model.arima.p = 2;
    c.model.arima.d = 1;
    c.model.arima.q = 2;
    c.model.arima.ar = {0.4, 0.2};
    c.model.arima.ma = {0.3, 0.2};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  c.validate();
  return w;
}

AlarmSets alarm_sets(const std::vector<core::IntervalReport>& reports) {
  AlarmSets sets;
  sets.reserve(reports.size());
  for (const auto& report : reports) {
    std::vector<std::uint64_t> keys;
    keys.reserve(report.alarms.size());
    for (const auto& alarm : report.alarms) keys.push_back(alarm.key);
    std::sort(keys.begin(), keys.end());
    sets.push_back(std::move(keys));
  }
  return sets;
}

std::uint64_t alarm_digest(const std::vector<std::uint64_t>& keys) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t k : keys) {
    for (int i = 0; i < 8; ++i) {
      h ^= (k >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

Input prepare_input(const Workload& w, std::uint64_t seed,
                    const std::string& cache_dir, bool keep_records) {
  fs::create_directories(cache_dir);
  Input in;
  in.trace_path = ensure_trace(w, seed, cache_dir, &in.generate_s);

  const auto t0 = std::chrono::steady_clock::now();
  const scd::eval::MappedTrace trace(in.trace_path);
  in.record_count = trace.record_count();
  in.records.resize(static_cast<std::size_t>(in.record_count));
  trace.decode(0, in.records);
  in.load_s = seconds_since(t0);
  in.boundaries = interval_boundaries(in.records, w.config.interval_s);
  if (in.boundaries.size() + 1 != w.intervals) {
    throw std::runtime_error("stream of " + w.name + " has " +
                             std::to_string(in.boundaries.size() + 1) +
                             " intervals, expected " +
                             std::to_string(w.intervals));
  }

  char fingerprint[17];
  std::snprintf(fingerprint, sizeof fingerprint, "%016llx",
                static_cast<unsigned long long>(
                    core::config_fingerprint(w.config)));
  const std::string ref_path = cache_dir + "/ref-" + w.name + "-" +
                               w.stream + "-" + std::to_string(seed) + "-" +
                               fingerprint + ".txt";
  if (fs::exists(ref_path)) {
    in.reference = read_alarm_sets(ref_path);
  } else {
    const auto t1 = std::chrono::steady_clock::now();
    in.reference = compute_reference(w, in.records);
    in.reference_s = seconds_since(t1);
    write_alarm_sets(ref_path, in.reference);
  }
  if (!keep_records) {
    in.records.clear();
    in.records.shrink_to_fit();
  }
  return in;
}

const std::vector<std::uint64_t>* DigestBook::find(const std::string& workload,
                                                   bool tiny,
                                                   std::uint64_t seed) const {
  for (const Entry& e : entries) {
    if (e.workload == workload && e.tiny == tiny && e.seed == seed) {
      return &e.digests;
    }
  }
  return nullptr;
}

DigestBook read_digest_book(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digest file " + path);
  DigestBook book;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    DigestBook::Entry e;
    std::string mode;
    if (!(fields >> e.workload >> mode >> e.seed) ||
        (mode != "full" && mode != "tiny")) {
      throw std::runtime_error("bad digest line: " + line);
    }
    e.tiny = mode == "tiny";
    std::string hex;
    while (fields >> hex) e.digests.push_back(std::stoull(hex, nullptr, 16));
    book.entries.push_back(std::move(e));
  }
  return book;
}

std::size_t failed_intervals(const AlarmSets& measured,
                             const AlarmSets& reference,
                             const std::vector<std::uint64_t>* committed) {
  if (measured.size() != reference.size()) return reference.size();
  std::size_t failed = 0;
  for (std::size_t t = 0; t < reference.size(); ++t) {
    bool ok = measured[t] == reference[t];
    if (committed != nullptr) {
      ok = ok && t < committed->size() &&
           (*committed)[t] == alarm_digest(measured[t]);
    }
    if (!ok) ++failed;
  }
  return failed;
}

}  // namespace perfbench
