#include "traffic/trace_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/little_endian.h"
#include "traffic/flow_record.h"

namespace scd::traffic {

namespace {

using common::load_le;
using common::store_le;

void encode_record(const FlowRecord& r, std::uint8_t* p) noexcept {
  store_le<std::uint64_t>(p, r.timestamp_us);
  store_le<std::uint32_t>(p + 8, r.src_ip);
  store_le<std::uint32_t>(p + 12, r.dst_ip);
  store_le<std::uint16_t>(p + 16, r.src_port);
  store_le<std::uint16_t>(p + 18, r.dst_port);
  p[20] = r.protocol;
  p[21] = r.tos;
  store_le<std::uint16_t>(p + 22, r.flags);
  store_le<std::uint32_t>(p + 24, r.packets);
  store_le<std::uint64_t>(p + 28, r.bytes);
}

/// Fields are read with explicit little-endian loads — FlowRecord has
/// alignment padding, so the file bytes are never cast.
FlowRecord decode_record(const std::uint8_t* p) noexcept {
  FlowRecord r;
  r.timestamp_us = load_le<std::uint64_t>(p);
  r.src_ip = load_le<std::uint32_t>(p + 8);
  r.dst_ip = load_le<std::uint32_t>(p + 12);
  r.src_port = load_le<std::uint16_t>(p + 16);
  r.dst_port = load_le<std::uint16_t>(p + 18);
  r.protocol = p[20];
  r.tos = p[21];
  r.flags = load_le<std::uint16_t>(p + 22);
  r.packets = load_le<std::uint32_t>(p + 24);
  r.bytes = load_le<std::uint64_t>(p + 28);
  return r;
}

/// Reads exactly `len` bytes at `offset`. Returns false when the file ends
/// first, or when a read fails (then `error` holds its errno).
[[nodiscard]] bool pread_full(int fd, std::uint8_t* out, std::size_t len,
                              std::uint64_t offset, int& error) noexcept {
  error = 0;
  while (len > 0) {
    const ssize_t got = ::pread(fd, out, len, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) error = errno;
    if (got <= 0) return false;
    out += got;
    len -= static_cast<std::size_t>(got);
    offset += static_cast<std::uint64_t>(got);
  }
  return true;
}

}  // namespace

const char* trace_error_kind_name(TraceErrorKind kind) noexcept {
  switch (kind) {
    case TraceErrorKind::kOpenFailed: return "open-failed";
    case TraceErrorKind::kTruncatedHeader: return "truncated-header";
    case TraceErrorKind::kBadMagic: return "bad-magic";
    case TraceErrorKind::kBadVersion: return "bad-version";
    case TraceErrorKind::kTruncatedBody: return "truncated-body";
    case TraceErrorKind::kTrailingBytes: return "trailing-bytes";
  }
  return "unknown";
}

TraceError::TraceError(TraceErrorKind kind, const std::string& message)
    : std::runtime_error(std::string(trace_error_kind_name(kind)) + ": " +
                         message),
      kind_(kind) {}

TraceWriter::TraceWriter(const std::string& path)
    : out_(path, std::ios::binary | std::ios::trunc), path_(path) {
  if (!out_) throw std::runtime_error("TraceWriter: cannot open " + path);
  std::array<std::uint8_t, kTraceHeaderBytes> header{};
  store_le<std::uint32_t>(header.data(), kTraceMagic);
  store_le<std::uint32_t>(header.data() + 4, kTraceVersion);
  // record_count (offset 8) stays 0 until finish() patches it.
  out_.write(reinterpret_cast<const char*>(header.data()), header.size());
}

TraceWriter::~TraceWriter() {
  try {
    finish();
  } catch (...) {
    // Destructor must not throw; errors are observable via explicit finish().
  }
}

void TraceWriter::append(const FlowRecord& record) {
  assert(record.timestamp_us >= last_timestamp_ &&
         "trace records must be time-ordered");
  last_timestamp_ = record.timestamp_us;
  std::array<std::uint8_t, kTraceRecordBytes> buf{};
  encode_record(record, buf.data());
  out_.write(reinterpret_cast<const char*>(buf.data()), buf.size());
  if (!out_) throw std::runtime_error("TraceWriter: write failed on " + path_);
  ++count_;
}

void TraceWriter::finish() {
  if (finished_) return;
  finished_ = true;
  out_.seekp(8);  // record_count offset
  std::array<std::uint8_t, 8> buf{};
  store_le<std::uint64_t>(buf.data(), count_);
  out_.write(reinterpret_cast<const char*>(buf.data()), buf.size());
  out_.close();
  if (!out_ && count_ > 0) {
    throw std::runtime_error("TraceWriter: finalize failed on " + path_);
  }
}

TraceReader::TraceReader(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);  // NOLINT(hicpp-vararg)
  if (fd_ < 0) {
    throw TraceError(TraceErrorKind::kOpenFailed,
                     "cannot open " + path + ": " + std::strerror(errno));
  }
  const auto fail = [this](TraceErrorKind kind, const std::string& message) {
    ::close(fd_);
    throw TraceError(kind, path_ + ": " + message);
  };
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    fail(TraceErrorKind::kOpenFailed,
         std::string("cannot stat: ") + std::strerror(errno));
  }
  const auto file_len = static_cast<std::uint64_t>(st.st_size);
  std::array<std::uint8_t, kTraceHeaderBytes> header{};
  int error = 0;
  if (file_len < kTraceHeaderBytes ||
      !pread_full(fd_, header.data(), header.size(), 0, error)) {
    fail(TraceErrorKind::kTruncatedHeader,
         "file ends inside the 16-byte trace header (" +
             std::to_string(file_len) + " bytes)");
  }
  // Magic before version before lengths, so each error names the first
  // thing actually wrong.
  if (load_le<std::uint32_t>(header.data()) != kTraceMagic) {
    fail(TraceErrorKind::kBadMagic, "not an SCDT trace file");
  }
  const auto version = load_le<std::uint32_t>(header.data() + 4);
  if (version != kTraceVersion) {
    fail(TraceErrorKind::kBadVersion,
         "trace format version " + std::to_string(version) +
             " (this build reads version " + std::to_string(kTraceVersion) +
             ")");
  }
  count_ = load_le<std::uint64_t>(header.data() + 8);
  // Compared in whole records, so a forged count cannot overflow a length.
  const std::uint64_t whole = (file_len - kTraceHeaderBytes) / kTraceRecordBytes;
  if (count_ > whole) {
    fail(TraceErrorKind::kTruncatedBody,
         "header promises " + std::to_string(count_) + " records but only " +
             std::to_string(whole) + " whole records are present");
  }
  const std::uint64_t expected = kTraceHeaderBytes + count_ * kTraceRecordBytes;
  if (file_len > expected) {
    fail(TraceErrorKind::kTrailingBytes,
         std::to_string(file_len - expected) +
             " bytes after the last of the header's " +
             std::to_string(count_) + " records");
  }
}

TraceReader::~TraceReader() { ::close(fd_); }

bool TraceReader::next(FlowRecord& out) {
  if (read_ == count_) return false;
  // next() reads sequentially from record 0, so blocks start at multiples
  // of kTraceBlockRecords.
  const auto slot = static_cast<std::size_t>(read_ % kTraceBlockRecords);
  if (slot == 0) {
    block_.resize(static_cast<std::size_t>(
        std::min<std::uint64_t>(kTraceBlockRecords, count_ - read_)));
    decode(static_cast<std::size_t>(read_), block_);
  }
  out = block_[slot];
  ++read_;
  return true;
}

void TraceReader::decode(std::size_t first,
                         std::span<FlowRecord> out) const {
  if (first > count_ || out.size() > count_ - first) {
    throw std::out_of_range("TraceReader::decode: records " +
                            std::to_string(first) + ".." +
                            std::to_string(first + out.size()) + " of " +
                            std::to_string(count_));
  }
  std::array<std::uint8_t, kTraceBlockRecords * kTraceRecordBytes> bytes{};
  for (std::size_t done = 0; done < out.size();) {
    const std::size_t n = std::min(kTraceBlockRecords, out.size() - done);
    int error = 0;
    if (!pread_full(fd_, bytes.data(), n * kTraceRecordBytes,
                    kTraceHeaderBytes + (first + done) * kTraceRecordBytes,
                    error)) {
      throw TraceError(
          TraceErrorKind::kTruncatedBody,
          path_ + ": records " + std::to_string(first + done) + ".." +
              std::to_string(first + done + n) + " of " +
              std::to_string(count_) + " cannot be read (" +
              (error != 0 ? std::strerror(error)
                          : "the file shrank after it was opened") +
              ")");
    }
    for (std::size_t i = 0; i < n; ++i) {
      out[done + i] = decode_record(bytes.data() + i * kTraceRecordBytes);
    }
    done += n;
  }
}

void write_trace(const std::string& path,
                 const std::vector<FlowRecord>& records) {
  TraceWriter writer(path);
  for (const FlowRecord& r : records) writer.append(r);
  writer.finish();
}

std::vector<FlowRecord> read_trace(const std::string& path) {
  const TraceReader reader(path);
  std::vector<FlowRecord> records(
      static_cast<std::size_t>(reader.record_count()));
  reader.decode(0, records);
  return records;
}

}  // namespace scd::traffic
