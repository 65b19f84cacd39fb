// Zero-copy trace ingest — mmap(2) the binary .scdt trace format.
//
// TraceReader (src/traffic/trace_io.h) pulls one 36-byte record per
// ifstream read: a syscall-amortized copy into a stack buffer, a decode,
// and then — on the parallel path — a second copy through the producer's
// chunk staging into a BoundedQueue. At multi-million-records/s that
// per-record motion, not hashing, dominates the feed side. MappedTrace
// removes it: the whole file is mapped read-only (madvise SEQUENTIAL so the
// kernel reads ahead and drops pages behind) and records are decoded in
// place from the mapped bytes — no stream buffer, no BoundedQueue.
//
// Validation mirrors src/checkpoint: every way an on-disk file can lie has
// a typed error, checked in order (open, header length, magic, version,
// body length), and a file that maps successfully is structurally sound —
// record_count() whole records are present, no trailing garbage. A
// zero-record trace (header only) is valid.
//
// feed_trace() is a decode-and-add_record loop: interval cutting, the
// out-of-order clamp and the batched UPDATE all happen inside the pipeline,
// so on the same trace its reports, alarms and PipelineStats are exactly
// those of any other add_record feed (asserted by
// tests/eval/trace_mmap_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

#include "core/pipeline.h"
#include "traffic/flow_record.h"

namespace scd::eval {

/// Why mapping a trace failed. Typed like CheckpointErrorKind: callers
/// distinguish "no such file" from "this file is not a trace" from "this
/// trace was cut off mid-record".
enum class TraceMapErrorKind {
  kOpenFailed,       ///< open/fstat/mmap itself failed
  kTruncatedHeader,  ///< file ends inside the 16-byte header
  kBadMagic,         ///< leading bytes are not "SCDT"
  kBadVersion,       ///< unknown trace format version
  kTruncatedBody,    ///< file ends inside a record (short final record)
  kTrailingBytes,    ///< file longer than header's record_count implies
};

[[nodiscard]] const char* trace_map_error_kind_name(
    TraceMapErrorKind kind) noexcept;

/// Thrown by every MappedTrace validation failure path.
class TraceMapError : public std::runtime_error {
 public:
  TraceMapError(TraceMapErrorKind kind, const std::string& message);

  [[nodiscard]] TraceMapErrorKind map_kind() const noexcept { return kind_; }

 private:
  TraceMapErrorKind kind_;
};

/// RAII read-only mapping of one .scdt trace file. Move-only; the mapping
/// (and the records decoded from it) stays valid for the object's lifetime.
class MappedTrace {
 public:
  /// Opens, maps, and validates `path`. Throws TraceMapError with the
  /// specific kind on the first violation (see enum above); on throw nothing
  /// stays mapped.
  explicit MappedTrace(const std::string& path);
  ~MappedTrace();
  MappedTrace(MappedTrace&& other) noexcept;
  MappedTrace& operator=(MappedTrace&& other) noexcept;
  MappedTrace(const MappedTrace&) = delete;
  MappedTrace& operator=(const MappedTrace&) = delete;

  /// Records in the trace, from the validated header.
  [[nodiscard]] std::uint64_t record_count() const noexcept { return count_; }
  /// Total mapped bytes (header + records).
  [[nodiscard]] std::size_t size_bytes() const noexcept { return map_len_; }

  /// Decodes record `index` (< record_count()) in place from the mapped
  /// bytes. Fields are read with explicit little-endian shifts — FlowRecord
  /// has alignment padding, so the mapped bytes are never cast.
  [[nodiscard]] traffic::FlowRecord record(std::size_t index) const noexcept;

  /// Bulk decode of `out.size()` records starting at `first` into caller
  /// scratch. The range [first, first + out.size()) must lie within
  /// record_count().
  void decode(std::size_t first,
              std::span<traffic::FlowRecord> out) const noexcept;

 private:
  const std::uint8_t* map_ = nullptr;  // null only after move-out
  std::size_t map_len_ = 0;
  std::uint64_t count_ = 0;
};

/// Feeds every record of the trace into `pipeline` with add_record, then
/// flush()es it. The pipeline's stats() count the records, intervals and
/// out-of-order records of the run.
void feed_trace(const MappedTrace& trace,
                core::ChangeDetectionPipeline& pipeline);

}  // namespace scd::eval
