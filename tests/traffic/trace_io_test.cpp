#include "traffic/trace_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/random.h"
#include "support/temp_path.h"

namespace scd::traffic {
namespace {

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Opening `path` must fail with exactly `kind`.
void expect_open_error(const std::string& path, TraceErrorKind kind,
                       const std::string& label) {
  SCOPED_TRACE(label);
  try {
    const TraceReader reader(path);
    FAIL() << "opened; expected " << trace_error_kind_name(kind);
  } catch (const TraceError& error) {
    EXPECT_EQ(error.kind(), kind) << error.what();
  }
}

/// `read` must fail with TraceError{kTruncatedBody}.
template <typename Read>
void expect_truncated_body(Read&& read, const std::string& label) {
  SCOPED_TRACE(label);
  try {
    read();
    FAIL() << "read succeeded; expected truncated-body";
  } catch (const TraceError& error) {
    EXPECT_EQ(error.kind(), TraceErrorKind::kTruncatedBody) << error.what();
  }
}

class TraceIoTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& name) {
    const auto dir = test_support::unique_temp_path("traces");
    std::filesystem::create_directories(dir);
    const auto path = dir / name;
    paths_.push_back(path.string());
    return path.string();
  }

  void TearDown() override {
    for (const auto& p : paths_) std::remove(p.c_str());
  }

  std::vector<std::string> paths_;
};

FlowRecord sample_record(std::uint64_t t_us) {
  FlowRecord r;
  r.timestamp_us = t_us;
  r.src_ip = 0x0a000001;
  r.dst_ip = 0xc0a80102;
  r.src_port = 12345;
  r.dst_port = 80;
  r.protocol = 6;
  r.tos = 4;
  r.flags = 0x18;
  r.packets = 10;
  r.bytes = 15000;
  return r;
}

TEST_F(TraceIoTest, RoundTripsSingleRecord) {
  const auto path = temp_path("single.scdt");
  const FlowRecord original = sample_record(123456789);
  write_trace(path, {original});
  const auto records = read_trace(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], original);
}

TEST_F(TraceIoTest, RoundTripsManyRandomRecords) {
  const auto path = temp_path("many.scdt");
  scd::common::Rng rng(1);
  std::vector<FlowRecord> records;
  std::uint64_t t = 0;
  for (int i = 0; i < 5000; ++i) {
    FlowRecord r;
    t += rng.next_below(1000);
    r.timestamp_us = t;
    r.src_ip = static_cast<std::uint32_t>(rng.next_u64());
    r.dst_ip = static_cast<std::uint32_t>(rng.next_u64());
    r.src_port = static_cast<std::uint16_t>(rng.next_u64());
    r.dst_port = static_cast<std::uint16_t>(rng.next_u64());
    r.protocol = static_cast<std::uint8_t>(rng.next_below(256));
    r.packets = static_cast<std::uint32_t>(rng.next_below(1000) + 1);
    r.bytes = rng.next_below(1000000);
    records.push_back(r);
  }
  write_trace(path, records);
  EXPECT_EQ(read_trace(path), records);
}

TEST_F(TraceIoTest, EmptyTraceRoundTrips) {
  const auto path = temp_path("empty.scdt");
  write_trace(path, {});
  EXPECT_TRUE(read_trace(path).empty());
}

TEST_F(TraceIoTest, ReaderReportsRecordCount) {
  const auto path = temp_path("count.scdt");
  write_trace(path, {sample_record(1), sample_record(2), sample_record(3)});
  TraceReader reader(path);
  EXPECT_EQ(reader.record_count(), 3u);
}

TEST_F(TraceIoTest, StreamingReadMatchesBulkRead) {
  const auto path = temp_path("stream.scdt");
  std::vector<FlowRecord> records;
  for (std::uint64_t i = 0; i < 100; ++i) records.push_back(sample_record(i));
  write_trace(path, records);
  TraceReader reader(path);
  FlowRecord r;
  std::size_t n = 0;
  while (reader.next(r)) {
    EXPECT_EQ(r, records[n]);
    ++n;
  }
  EXPECT_EQ(n, records.size());
}

TEST_F(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(TraceReader("/nonexistent/dir/file.scdt"), std::runtime_error);
}

TEST_F(TraceIoTest, BadMagicThrows) {
  const auto path = temp_path("badmagic.scdt");
  std::ofstream out(path, std::ios::binary);
  out.write("NOPE0000000000000000", 20);
  out.close();
  EXPECT_THROW({ TraceReader reader(path); }, std::runtime_error);
}

TEST_F(TraceIoTest, TruncatedHeaderThrows) {
  const auto path = temp_path("short.scdt");
  std::ofstream out(path, std::ios::binary);
  out.write("SC", 2);
  out.close();
  EXPECT_THROW({ TraceReader reader(path); }, std::runtime_error);
}

TEST_F(TraceIoTest, TruncatedBodyStopsCleanly) {
  const auto path = temp_path("truncbody.scdt");
  write_trace(path, {sample_record(1), sample_record(2)});
  // Chop the last record in half. The header still promises two records,
  // so the file is refused at open: the truncated record is not
  // fabricated, and the whole one is not passed off as the full trace.
  std::filesystem::resize_file(
      path, std::filesystem::file_size(path) - kTraceRecordBytes / 2);
  expect_open_error(path, TraceErrorKind::kTruncatedBody, "half a record");
}

TEST_F(TraceIoTest, FileTruncatedAfterOpenIsTypedNotASignal) {
  // Log rotation or a partial copy can shrink a trace while a reader has it
  // open. Both read paths must then throw the typed error: next() must not
  // end the stream early as if it were complete, and decode() must not
  // fault.
  constexpr std::size_t kBlock = TraceReader::kTraceBlockRecords;
  const auto path = temp_path("shrinks.scdt");
  std::vector<FlowRecord> records;
  for (std::uint64_t i = 0; i < 3 * kBlock + 5; ++i) {
    records.push_back(sample_record(i));
  }
  write_trace(path, records);
  TraceReader reader(path);
  ASSERT_EQ(reader.record_count(), records.size());
  FlowRecord r;
  ASSERT_TRUE(reader.next(r));  // the first block is now buffered

  const std::size_t kept = kBlock + 10;
  std::filesystem::resize_file(path,
                               kTraceHeaderBytes + kept * kTraceRecordBytes);

  std::size_t returned = 1;
  expect_truncated_body(
      [&] {
        while (reader.next(r)) ++returned;
      },
      "next() past the cut");
  EXPECT_EQ(returned, kBlock);  // the buffered block, then the throw

  std::vector<FlowRecord> slice(100);
  expect_truncated_body([&] { reader.decode(kBlock, slice); },
                        "decode() across the cut");
  // Records still on disk decode as written.
  slice.resize(kept);
  reader.decode(0, slice);
  EXPECT_TRUE(std::equal(slice.begin(), slice.end(), records.begin()));
}

TEST_F(TraceIoTest, WriterCountsRecords) {
  const auto path = temp_path("writer.scdt");
  TraceWriter writer(path);
  writer.append(sample_record(10));
  writer.append(sample_record(20));
  EXPECT_EQ(writer.records_written(), 2u);
  writer.finish();
}

TEST_F(TraceIoTest, UnwritableDirectoryThrows) {
  EXPECT_THROW(TraceWriter("/nonexistent/dir/out.scdt"), std::runtime_error);
}

// Typed-error corpus: every way an on-disk .scdt file can lie surfaces at
// open as the matching TraceErrorKind. The suite keeps the name these cases
// were first written under; eval::MappedTrace is this reader's older name.

std::string corpus_trace(const std::string& name) {
  const std::filesystem::path path = test_support::unique_temp_path(name);
  std::vector<FlowRecord> records;
  for (std::uint64_t i = 0; i < 50; ++i) {
    records.push_back(sample_record(1000 * i));
  }
  write_trace(path.string(), records);
  return path.string();
}

TEST(MappedTrace, MissingFileIsOpenFailed) {
  const std::filesystem::path path =
      test_support::unique_temp_path("missing.scdt");
  std::filesystem::remove(path);
  expect_open_error(path.string(), TraceErrorKind::kOpenFailed,
                    "missing file");
}

TEST(MappedTrace, TruncatedHeaderIsTyped) {
  const std::string path = corpus_trace("trunc_header.scdt");
  const std::vector<std::uint8_t> pristine = read_bytes(path);
  for (const std::size_t len : {std::size_t{0}, std::size_t{8},
                                std::size_t{15}}) {
    write_bytes(path, {pristine.begin(), pristine.begin() +
                                             static_cast<std::ptrdiff_t>(len)});
    expect_open_error(path, TraceErrorKind::kTruncatedHeader,
                      "header cut at byte " + std::to_string(len));
  }
}

TEST(MappedTrace, BadMagicIsTyped) {
  const std::string path = corpus_trace("bad_magic.scdt");
  std::vector<std::uint8_t> bytes = read_bytes(path);
  bytes[0] ^= 0xff;
  write_bytes(path, bytes);
  expect_open_error(path, TraceErrorKind::kBadMagic, "flipped magic");
}

TEST(MappedTrace, BadVersionIsTyped) {
  const std::string path = corpus_trace("bad_version.scdt");
  std::vector<std::uint8_t> bytes = read_bytes(path);
  bytes[4] = 0x7f;  // version field, little-endian low byte
  write_bytes(path, bytes);
  expect_open_error(path, TraceErrorKind::kBadVersion, "future version");
}

TEST(MappedTrace, ShortFinalRecordIsTyped) {
  const std::string path = corpus_trace("short_final.scdt");
  std::vector<std::uint8_t> bytes = read_bytes(path);
  bytes.pop_back();  // cut the last record one byte short
  write_bytes(path, bytes);
  expect_open_error(path, TraceErrorKind::kTruncatedBody,
                    "short final record");
  // Losing a whole record is the same lie: the header still promises it.
  bytes.resize(bytes.size() + 1 - kTraceRecordBytes);
  write_bytes(path, bytes);
  expect_open_error(path, TraceErrorKind::kTruncatedBody,
                    "missing final record");
}

TEST(MappedTrace, TrailingBytesAreTyped) {
  const std::string path = corpus_trace("trailing.scdt");
  std::vector<std::uint8_t> bytes = read_bytes(path);
  bytes.push_back(0xab);
  write_bytes(path, bytes);
  expect_open_error(path, TraceErrorKind::kTrailingBytes, "trailing garbage");
  // A writer that crashed before finish() leaves its provisional header
  // count of 0 in front of a non-empty body.
  bytes.pop_back();
  for (std::size_t i = 8; i < kTraceHeaderBytes; ++i) bytes[i] = 0;
  write_bytes(path, bytes);
  expect_open_error(path, TraceErrorKind::kTrailingBytes,
                    "crashed writer, count 0");
}

}  // namespace
}  // namespace scd::traffic
