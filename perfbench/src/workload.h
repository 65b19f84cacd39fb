// Workload definitions, the cached inputs they run on, and the alarm
// reference every measured run is checked against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "traffic/flow_record.h"

namespace perfbench {

/// One named benchmark workload: a synthetic stream, the detector
/// configuration and which pipeline runs it.
struct Workload {
  std::string name;
  /// Cache key of the input stream; workloads that differ only in
  /// configuration share one stream (and one cached trace).
  std::string stream;
  std::size_t intervals = 0;  // closed intervals per pass
  double records_per_interval = 0.0;
  std::size_t hosts = 0;  // destination population (Zipf 1.0)
  /// true: ingest::ParallelPipeline fed from memory; false: the serial
  /// ChangeDetectionPipeline fed record by record from the .scdt file.
  bool parallel = false;
  /// Cores a parallel workload leaves idle beyond its W workers, merger and
  /// producer. A worker-bound feed whose threads fill every core is slowed
  /// by any other process on the host, and its close latency most of all.
  unsigned spare_cores = 0;
  scd::core::PipelineConfig config;
};

/// Throws std::invalid_argument for an unknown name. `tiny` shrinks the
/// stream for the self-test; the configuration is unchanged.
[[nodiscard]] Workload make_workload(const std::string& name, bool tiny);

/// Per closed interval, the sorted keys of its alarms.
using AlarmSets = std::vector<std::vector<std::uint64_t>>;

[[nodiscard]] AlarmSets alarm_sets(
    const std::vector<scd::core::IntervalReport>& reports);

/// FNV-1a over the sorted keys of one interval's alarms.
[[nodiscard]] std::uint64_t alarm_digest(const std::vector<std::uint64_t>& keys);

/// Everything a run needs before its first timed window opens.
struct Input {
  std::string trace_path;  // cached .scdt file of the stream
  /// The decoded stream, resident in memory. Empty for serial workloads in
  /// the untraced run, which read the file inside the timed window.
  std::vector<scd::traffic::FlowRecord> records;
  std::uint64_t record_count = 0;
  /// boundaries[t] = index of the first record past interval t (the record
  /// whose add() closes t); the last interval is closed by flush().
  std::vector<std::size_t> boundaries;
  AlarmSets reference;     // serial per-record pipeline on the same stream
  double generate_s = 0.0;   // trace generation (0 when cached)
  double reference_s = 0.0;  // reference computation (0 when cached)
  double load_s = 0.0;       // decoding the trace into memory
};

/// Generates (or reuses) the cached trace, loads it and computes (or
/// reuses) the alarm reference. Cache files are written under a unique
/// per-process name and renamed into place, so concurrent runs never see a
/// partial file.
[[nodiscard]] Input prepare_input(const Workload& workload, std::uint64_t seed,
                                  const std::string& cache_dir,
                                  bool keep_records);

/// Committed per-interval alarm digests of the default seed, read from a
/// text file of lines "<workload> <full|tiny> <seed> <hex>...".
struct DigestBook {
  /// Returns nullptr when the file has no line for the triple.
  [[nodiscard]] const std::vector<std::uint64_t>* find(
      const std::string& workload, bool tiny, std::uint64_t seed) const;

  struct Entry {
    std::string workload;
    bool tiny = false;
    std::uint64_t seed = 0;
    std::vector<std::uint64_t> digests;
  };
  std::vector<Entry> entries;
};

/// Throws std::runtime_error when the file cannot be read or parsed.
[[nodiscard]] DigestBook read_digest_book(const std::string& path);

/// Counts the intervals of one pass whose alarm set differs from the
/// reference or, when `committed` is given, from the committed digest.
/// A pass that closed a different number of intervals fails all of them.
[[nodiscard]] std::size_t failed_intervals(
    const AlarmSets& measured, const AlarmSets& reference,
    const std::vector<std::uint64_t>* committed);

}  // namespace perfbench
