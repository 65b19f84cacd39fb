#include "eval/trace_mmap.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "core/pipeline.h"
#include "traffic/flow_record.h"
#include "traffic/trace_io.h"

namespace scd::eval {

namespace {

constexpr std::size_t kTraceHeaderBytes = 16;

template <typename T>
T get_le(const std::uint8_t* p) noexcept {
  T value = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    value = static_cast<T>(value | (static_cast<T>(p[i]) << (8 * i)));
  }
  return value;
}

}  // namespace

const char* trace_map_error_kind_name(TraceMapErrorKind kind) noexcept {
  switch (kind) {
    case TraceMapErrorKind::kOpenFailed: return "open-failed";
    case TraceMapErrorKind::kTruncatedHeader: return "truncated-header";
    case TraceMapErrorKind::kBadMagic: return "bad-magic";
    case TraceMapErrorKind::kBadVersion: return "bad-version";
    case TraceMapErrorKind::kTruncatedBody: return "truncated-body";
    case TraceMapErrorKind::kTrailingBytes: return "trailing-bytes";
  }
  return "unknown";
}

TraceMapError::TraceMapError(TraceMapErrorKind kind,
                             const std::string& message)
    : std::runtime_error(std::string(trace_map_error_kind_name(kind)) + ": " +
                         message),
      kind_(kind) {}

MappedTrace::MappedTrace(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);  // NOLINT(hicpp-vararg)
  if (fd < 0) {
    throw TraceMapError(TraceMapErrorKind::kOpenFailed,
                        "cannot open " + path + ": " + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw TraceMapError(TraceMapErrorKind::kOpenFailed,
                        "cannot stat " + path + ": " + std::strerror(err));
  }
  const auto file_len = static_cast<std::size_t>(st.st_size);
  if (file_len < kTraceHeaderBytes) {
    ::close(fd);
    throw TraceMapError(
        TraceMapErrorKind::kTruncatedHeader,
        path + " ends inside the 16-byte trace header (" +
            std::to_string(file_len) + " bytes)");
  }
  void* map = ::mmap(nullptr, file_len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference to the file
  if (map == MAP_FAILED) {
    throw TraceMapError(TraceMapErrorKind::kOpenFailed,
                        "cannot mmap " + path + ": " + std::strerror(errno));
  }
  // Advisory only: tells the kernel to read ahead aggressively and drop
  // pages behind the sweep. A failure changes nothing observable.
  (void)::madvise(map, file_len, MADV_SEQUENTIAL);
  map_ = static_cast<const std::uint8_t*>(map);
  map_len_ = file_len;

  // Validate in the checkpoint parser's order: magic before version before
  // lengths, so each error names the first thing actually wrong.
  const std::uint32_t magic = get_le<std::uint32_t>(map_);
  const std::uint32_t version = get_le<std::uint32_t>(map_ + 4);
  count_ = get_le<std::uint64_t>(map_ + 8);
  const auto fail = [this, &path](TraceMapErrorKind kind,
                                  const std::string& message) {
    ::munmap(const_cast<std::uint8_t*>(map_), map_len_);
    map_ = nullptr;
    throw TraceMapError(kind, path + ": " + message);
  };
  if (magic != traffic::kTraceMagic) {
    fail(TraceMapErrorKind::kBadMagic, "not an SCDT trace file");
  }
  if (version != traffic::kTraceVersion) {
    fail(TraceMapErrorKind::kBadVersion,
         "trace format version " + std::to_string(version) +
             " (this build reads version " +
             std::to_string(traffic::kTraceVersion) + ")");
  }
  const std::size_t expected =
      kTraceHeaderBytes + static_cast<std::size_t>(count_) *
                              traffic::kTraceRecordBytes;
  if (file_len < expected) {
    const std::size_t whole =
        (file_len - kTraceHeaderBytes) / traffic::kTraceRecordBytes;
    fail(TraceMapErrorKind::kTruncatedBody,
         "header promises " + std::to_string(count_) + " records but only " +
             std::to_string(whole) + " whole records are present");
  }
  if (file_len > expected) {
    fail(TraceMapErrorKind::kTrailingBytes,
         std::to_string(file_len - expected) +
             " bytes of trailing garbage after the last record");
  }
}

MappedTrace::~MappedTrace() {
  if (map_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(map_), map_len_);
  }
}

MappedTrace::MappedTrace(MappedTrace&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      map_len_(std::exchange(other.map_len_, 0)),
      count_(std::exchange(other.count_, 0)) {}

MappedTrace& MappedTrace::operator=(MappedTrace&& other) noexcept {
  if (this != &other) {
    if (map_ != nullptr) ::munmap(const_cast<std::uint8_t*>(map_), map_len_);
    map_ = std::exchange(other.map_, nullptr);
    map_len_ = std::exchange(other.map_len_, 0);
    count_ = std::exchange(other.count_, 0);
  }
  return *this;
}

traffic::FlowRecord MappedTrace::record(std::size_t index) const noexcept {
  const std::uint8_t* p =
      map_ + kTraceHeaderBytes + index * traffic::kTraceRecordBytes;
  traffic::FlowRecord r;
  r.timestamp_us = get_le<std::uint64_t>(p);
  r.src_ip = get_le<std::uint32_t>(p + 8);
  r.dst_ip = get_le<std::uint32_t>(p + 12);
  r.src_port = get_le<std::uint16_t>(p + 16);
  r.dst_port = get_le<std::uint16_t>(p + 18);
  r.protocol = p[20];
  r.tos = p[21];
  r.flags = get_le<std::uint16_t>(p + 22);
  r.packets = get_le<std::uint32_t>(p + 24);
  r.bytes = get_le<std::uint64_t>(p + 28);
  return r;
}

void MappedTrace::decode(std::size_t first,
                         std::span<traffic::FlowRecord> out) const noexcept {
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = record(first + i);
}

void feed_trace(const MappedTrace& trace,
                core::ChangeDetectionPipeline& pipeline) {
  for (std::uint64_t i = 0; i < trace.record_count(); ++i) {
    pipeline.add_record(trace.record(static_cast<std::size_t>(i)));
  }
  pipeline.flush();
}

}  // namespace scd::eval
