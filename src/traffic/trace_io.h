// Binary trace file format — the repository's stand-in for "netflow dumps"
// (§4.1). Little-endian, fixed-size records:
//
//   header:  magic "SCDT" | u32 version | u64 record_count
//   records: timestamp_us u64 | src_ip u32 | dst_ip u32 | src_port u16 |
//            dst_port u16 | protocol u8 | tos u8 | flags u16 | packets u32 |
//            bytes u64
//
// Records must be appended in nondecreasing timestamp order (asserted by the
// writer), matching how routers emit flow export.
//
// Every way an on-disk file can lie has a typed TraceError, checked in order
// when the reader opens the file: open, header length, magic, version, body
// length. A file that opens is structurally sound — exactly record_count()
// whole records, no trailing bytes — and a header-only (zero-record) trace
// is valid. A file that shrinks after it was opened fails the read that
// comes up short with TraceError{kTruncatedBody}; no read ever returns a
// short stream or fabricated records.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "traffic/flow_record.h"

namespace scd::traffic {

inline constexpr std::uint32_t kTraceMagic = 0x54444353;  // "SCDT" LE
inline constexpr std::uint32_t kTraceVersion = 1;
inline constexpr std::size_t kTraceHeaderBytes = 16;
inline constexpr std::size_t kTraceRecordBytes = 36;

/// Why reading a trace failed. Typed like CheckpointErrorKind: callers
/// distinguish "no such file" from "this file is not a trace" from "this
/// trace was cut off".
enum class TraceErrorKind {
  kOpenFailed,       ///< open/fstat failed
  kTruncatedHeader,  ///< file ends inside the 16-byte header
  kBadMagic,         ///< leading bytes are not "SCDT"
  kBadVersion,       ///< unknown trace format version
  kTruncatedBody,    ///< fewer body bytes than the header promises, at open
                     ///< or at a later read (the file shrank, or a read
                     ///< failed)
  kTrailingBytes,    ///< file longer than the header's record_count implies
};

[[nodiscard]] const char* trace_error_kind_name(TraceErrorKind kind) noexcept;

/// Thrown by every TraceReader validation and read failure.
class TraceError : public std::runtime_error {
 public:
  TraceError(TraceErrorKind kind, const std::string& message);

  [[nodiscard]] TraceErrorKind kind() const noexcept { return kind_; }

 private:
  TraceErrorKind kind_;
};

class TraceWriter {
 public:
  /// Opens (truncates) the file and writes a provisional header. Throws
  /// std::runtime_error on I/O failure.
  explicit TraceWriter(const std::string& path);
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void append(const FlowRecord& record);

  /// Patches the record count into the header and closes the file. Called by
  /// the destructor if not called explicitly; call it directly to observe
  /// errors.
  void finish();

  [[nodiscard]] std::uint64_t records_written() const noexcept { return count_; }

 private:
  std::ofstream out_;
  std::string path_;
  std::uint64_t count_ = 0;
  std::uint64_t last_timestamp_ = 0;
  bool finished_ = false;
};

/// The one .scdt reader: streaming (next) and random-access (decode) reads
/// of one validated file, both through pread(2) in blocks of
/// kTraceBlockRecords records.
class TraceReader {
 public:
  /// Records per pread (36 KiB). The read buffers stay well below glibc's
  /// 128 KiB mmap threshold: freeing a larger heap block raises that
  /// threshold for the rest of the process, which measurably changed the
  /// speed of the pipelines that run after a trace is loaded.
  static constexpr std::size_t kTraceBlockRecords = 1024;

  /// Opens and validates `path` (see the format comment above). Throws
  /// TraceError with the kind of the first violation.
  explicit TraceReader(const std::string& path);
  ~TraceReader();
  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  /// Reads the next record; returns false after record_count() records.
  /// Throws TraceError{kTruncatedBody} if the file shrank since it was
  /// opened.
  [[nodiscard]] bool next(FlowRecord& out);

  /// Records in the trace, from the validated header.
  [[nodiscard]] std::uint64_t record_count() const noexcept { return count_; }

  /// Decodes the `out.size()` records starting at `first` into `out`,
  /// independently of next()'s position. Throws std::out_of_range
  /// when the range passes record_count(), and TraceError{kTruncatedBody}
  /// if the file shrank since it was opened.
  void decode(std::size_t first, std::span<FlowRecord> out) const;

 private:
  std::string path_;
  int fd_ = -1;
  std::uint64_t count_ = 0;
  std::uint64_t read_ = 0;         // records returned by next()
  std::vector<FlowRecord> block_;  // next()'s current block
};

/// Convenience: writes a whole vector as a trace file.
void write_trace(const std::string& path, const std::vector<FlowRecord>& records);

/// Convenience: reads a whole trace file into memory.
[[nodiscard]] std::vector<FlowRecord> read_trace(const std::string& path);

}  // namespace scd::traffic
