#include "net/wire.h"

#include <cmath>

#include "common/crc32.h"
#include "common/little_endian.h"
#include "sketch/serialize.h"

namespace scd::net {

namespace {

using common::load_le;

/// Validates the 56 header bytes (magic, CRC, version, type, length bound)
/// and returns the parsed header. Shared by decode_frame and FrameReader so
/// both reject identically.
[[nodiscard]] FrameHeader parse_header(const std::uint8_t* p,
                                       std::size_t max_payload_bytes) {
  if (load_le<std::uint32_t>(p) != kWireMagic) {
    throw WireError(WireErrorKind::kBadMagic,
                    "leading bytes are not \"SCDN\"");
  }
  const std::uint32_t header_crc = load_le<std::uint32_t>(p + 52);
  if (common::crc32(p, 52) != header_crc) {
    throw WireError(WireErrorKind::kBadCrc, "header CRC32 mismatch");
  }
  const std::uint32_t version = load_le<std::uint32_t>(p + 4);
  if (version != kWireVersion) {
    throw WireError(WireErrorKind::kBadVersion,
                    "protocol version " + std::to_string(version) +
                        " is not the supported version " +
                        std::to_string(kWireVersion));
  }
  const std::uint32_t type = load_le<std::uint32_t>(p + 8);
  if (!message_type_known(type)) {
    throw WireError(WireErrorKind::kBadType,
                    "unknown message type " + std::to_string(type));
  }
  FrameHeader header;
  header.type = static_cast<MessageType>(type);
  header.node_id = load_le<std::uint64_t>(p + 16);
  header.interval_index = load_le<std::uint64_t>(p + 24);
  header.config_fingerprint = load_le<std::uint64_t>(p + 32);
  header.payload_len = load_le<std::uint64_t>(p + 40);
  if (header.payload_len > max_payload_bytes) {
    throw WireError(WireErrorKind::kOversized,
                    "declared payload of " +
                        std::to_string(header.payload_len) +
                        " bytes exceeds the " +
                        std::to_string(max_payload_bytes) + "-byte ceiling");
  }
  return header;
}

void check_payload_crc(const FrameHeader& header, const std::uint8_t* head,
                       const std::uint8_t* payload) {
  const std::uint32_t payload_crc = load_le<std::uint32_t>(head + 48);
  if (common::crc32(payload, static_cast<std::size_t>(header.payload_len)) !=
      payload_crc) {
    throw WireError(WireErrorKind::kBadCrc, "payload CRC32 mismatch");
  }
}

}  // namespace

bool message_type_known(std::uint32_t value) noexcept {
  return value >= static_cast<std::uint32_t>(MessageType::kHello) &&
         value <= static_cast<std::uint32_t>(MessageType::kBye);
}

const char* message_type_name(MessageType type) noexcept {
  switch (type) {
    case MessageType::kHello:
      return "hello";
    case MessageType::kHelloAck:
      return "hello-ack";
    case MessageType::kIntervalData:
      return "interval-data";
    case MessageType::kAck:
      return "ack";
    case MessageType::kBye:
      return "bye";
  }
  return "unknown";
}

const char* wire_error_kind_name(WireErrorKind kind) noexcept {
  switch (kind) {
    case WireErrorKind::kTruncated:
      return "truncated";
    case WireErrorKind::kBadMagic:
      return "bad-magic";
    case WireErrorKind::kBadVersion:
      return "bad-version";
    case WireErrorKind::kBadType:
      return "bad-type";
    case WireErrorKind::kBadCrc:
      return "bad-crc";
    case WireErrorKind::kOversized:
      return "oversized";
    case WireErrorKind::kBadPayload:
      return "bad-payload";
    case WireErrorKind::kIo:
      return "io";
  }
  return "unknown";
}

namespace {

/// Maps each wire failure onto the closest base SerializeErrorKind so legacy
/// catch sites switching on kind() stay meaningful.
[[nodiscard]] sketch::SerializeErrorKind base_kind(WireErrorKind kind) noexcept {
  switch (kind) {
    case WireErrorKind::kTruncated:
      return sketch::SerializeErrorKind::kTruncated;
    case WireErrorKind::kBadMagic:
      return sketch::SerializeErrorKind::kBadMagic;
    case WireErrorKind::kBadVersion:
      return sketch::SerializeErrorKind::kBadVersion;
    case WireErrorKind::kBadType:
      return sketch::SerializeErrorKind::kBadMagic;
    case WireErrorKind::kBadCrc:
      return sketch::SerializeErrorKind::kCorruptRegisters;
    case WireErrorKind::kOversized:
      return sketch::SerializeErrorKind::kBadDimensions;
    case WireErrorKind::kBadPayload:
      return sketch::SerializeErrorKind::kCorruptRegisters;
    case WireErrorKind::kIo:
      return sketch::SerializeErrorKind::kWriteFailed;
  }
  return sketch::SerializeErrorKind::kCorruptRegisters;
}

}  // namespace

WireError::WireError(WireErrorKind kind, const std::string& message)
    : sketch::SerializeError(base_kind(kind),
                             std::string("wire [") +
                                 wire_error_kind_name(kind) + "] " + message),
      kind_(kind) {}

std::vector<std::uint8_t> encode_frame(const FrameHeader& header,
                                       std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + payload.size());
  common::ByteWriter w(out);
  w.u32(kWireMagic);
  w.u32(kWireVersion);
  w.u32(static_cast<std::uint32_t>(header.type));
  w.u32(0);  // reserved
  w.u64(header.node_id);
  w.u64(header.interval_index);
  w.u64(header.config_fingerprint);
  w.u64(payload.size());
  w.u32(common::crc32(payload.data(), payload.size()));
  w.u32(common::crc32(out.data(), out.size()));  // header CRC
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Frame decode_frame(std::span<const std::uint8_t> bytes,
                   std::size_t max_payload_bytes) {
  if (bytes.size() < kFrameHeaderBytes) {
    throw WireError(WireErrorKind::kTruncated,
                    "buffer ends inside the " +
                        std::to_string(kFrameHeaderBytes) + "-byte header (" +
                        std::to_string(bytes.size()) + " bytes)");
  }
  const FrameHeader header = parse_header(bytes.data(), max_payload_bytes);
  const std::uint64_t body = bytes.size() - kFrameHeaderBytes;
  if (body < header.payload_len) {
    throw WireError(WireErrorKind::kTruncated,
                    "payload holds " + std::to_string(body) + " of " +
                        std::to_string(header.payload_len) + " bytes");
  }
  if (body > header.payload_len) {
    throw WireError(WireErrorKind::kBadPayload,
                    std::to_string(body - header.payload_len) +
                        " trailing bytes after the payload");
  }
  check_payload_crc(header, bytes.data(), bytes.data() + kFrameHeaderBytes);
  Frame frame;
  frame.header = header;
  frame.payload.assign(bytes.begin() +
                           static_cast<std::ptrdiff_t>(kFrameHeaderBytes),
                       bytes.end());
  return frame;
}

void FrameReader::feed(std::span<const std::uint8_t> bytes) {
  // Compact lazily: only when the consumed prefix dominates the buffer, so
  // steady-state feeding is amortized O(bytes).
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::optional<Frame> FrameReader::next() {
  const std::size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return std::nullopt;
  const std::uint8_t* head = buffer_.data() + consumed_;
  const FrameHeader header = parse_header(head, max_payload_bytes_);
  if (available < kFrameHeaderBytes + header.payload_len) return std::nullopt;
  check_payload_crc(header, head, head + kFrameHeaderBytes);
  Frame frame;
  frame.header = header;
  frame.payload.assign(head + kFrameHeaderBytes,
                       head + kFrameHeaderBytes + header.payload_len);
  consumed_ += kFrameHeaderBytes + static_cast<std::size_t>(header.payload_len);
  return frame;
}

namespace {

constexpr std::uint64_t kIntervalPayloadVersion = 1;

/// Cursor over an interval payload: a field cut off by the end of the
/// payload is a kBadPayload WireError.
using PayloadReader = common::ByteReader<WireError, WireErrorKind::kBadPayload>;

}  // namespace

std::vector<std::uint8_t> encode_interval_payload(
    const IntervalPayload& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(8 * 6 + payload.sketch_packet.size() + 8 * payload.keys.size());
  common::ByteWriter w(out);
  w.u64(kIntervalPayloadVersion);
  w.f64(payload.start_s);
  w.f64(payload.len_s);
  w.u64(payload.records);
  w.u64(payload.sketch_packet.size());
  out.insert(out.end(), payload.sketch_packet.begin(),
             payload.sketch_packet.end());
  w.u64(payload.keys.size());
  for (const std::uint64_t key : payload.keys) w.u64(key);
  return out;
}

IntervalPayload decode_interval_payload(std::span<const std::uint8_t> bytes) {
  PayloadReader in(bytes, "interval payload");
  const std::uint64_t version = in.u64();
  if (version != kIntervalPayloadVersion) {
    throw WireError(WireErrorKind::kBadPayload,
                    "interval payload version " + std::to_string(version) +
                        " is not the supported version " +
                        std::to_string(kIntervalPayloadVersion));
  }
  IntervalPayload payload;
  payload.start_s = in.f64();
  payload.len_s = in.f64();
  if (!std::isfinite(payload.start_s) || !std::isfinite(payload.len_s) ||
      !(payload.len_s > 0.0)) {
    throw WireError(WireErrorKind::kBadPayload,
                    "interval times must be finite with len_s > 0");
  }
  payload.records = in.u64();
  const std::uint64_t sketch_len = in.u64();
  if (in.remaining() < sketch_len) {
    throw WireError(WireErrorKind::kBadPayload,
                    "interval payload ends inside the sketch packet");
  }
  const auto packet = in.take(static_cast<std::size_t>(sketch_len));
  payload.sketch_packet.assign(packet.begin(), packet.end());
  const std::uint64_t key_count = in.u64();
  if (in.remaining() / 8 < key_count) {
    throw WireError(WireErrorKind::kBadPayload,
                    "interval payload ends inside the key list");
  }
  payload.keys.reserve(static_cast<std::size_t>(key_count));
  for (std::uint64_t i = 0; i < key_count; ++i) {
    payload.keys.push_back(in.u64());
  }
  if (in.remaining() != 0) {
    throw WireError(WireErrorKind::kBadPayload,
                    std::to_string(in.remaining()) +
                        " trailing bytes after the key list");
  }
  return payload;
}

}  // namespace scd::net
