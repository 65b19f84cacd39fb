#include "checkpoint/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "checkpoint/checkpoint_metrics.h"
#include "common/atomic_file.h"
#include "common/crc32.h"
#include "common/little_endian.h"
#include "common/logging.h"
#include "core/pipeline.h"
#include "ingest/parallel_pipeline.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"
#include "sketch/serialize.h"

namespace scd::checkpoint {

const char* checkpoint_error_kind_name(CheckpointErrorKind kind) noexcept {
  switch (kind) {
    case CheckpointErrorKind::kWriteFailed:
      return "write-failed";
    case CheckpointErrorKind::kTruncated:
      return "truncated";
    case CheckpointErrorKind::kBadMagic:
      return "bad-magic";
    case CheckpointErrorKind::kBadVersion:
      return "bad-version";
    case CheckpointErrorKind::kBadCrc:
      return "bad-crc";
    case CheckpointErrorKind::kConfigMismatch:
      return "config-mismatch";
    case CheckpointErrorKind::kBadPayload:
      return "bad-payload";
  }
  return "unknown";
}

namespace {

/// Maps each checkpoint failure onto the closest base SerializeErrorKind so
/// legacy catch sites switching on kind() stay meaningful.
[[nodiscard]] sketch::SerializeErrorKind base_kind(
    CheckpointErrorKind kind) noexcept {
  switch (kind) {
    case CheckpointErrorKind::kWriteFailed:
      return sketch::SerializeErrorKind::kWriteFailed;
    case CheckpointErrorKind::kTruncated:
      return sketch::SerializeErrorKind::kTruncated;
    case CheckpointErrorKind::kBadMagic:
      return sketch::SerializeErrorKind::kBadMagic;
    case CheckpointErrorKind::kBadVersion:
      return sketch::SerializeErrorKind::kBadVersion;
    case CheckpointErrorKind::kBadCrc:
      return sketch::SerializeErrorKind::kCorruptRegisters;
    case CheckpointErrorKind::kConfigMismatch:
      return sketch::SerializeErrorKind::kFamilyMismatch;
    case CheckpointErrorKind::kBadPayload:
      return sketch::SerializeErrorKind::kCorruptRegisters;
  }
  return sketch::SerializeErrorKind::kCorruptRegisters;
}

}  // namespace

CheckpointError::CheckpointError(CheckpointErrorKind kind,
                                 const std::string& message)
    : sketch::SerializeError(
          base_kind(kind), std::string("checkpoint [") +
                               checkpoint_error_kind_name(kind) + "] " +
                               message),
      kind_(kind) {}

std::uint64_t config_fingerprint(const core::PipelineConfig& config) noexcept {
  // The fingerprint moved to core so provenance records and flight-recorder
  // dumps share it; this alias keeps existing checkpoint call sites working.
  return core::config_fingerprint(config);
}

// ---------------------------------------------------------------------------
// Real file ops

namespace {

/// Delegates to the shared common/atomic_file.h primitives (the same recipe
/// now also backs flight-recorder dumps), translating their (bool, message)
/// reporting into CheckpointError. Message formats are unchanged:
/// "<op> <path>: <strerror>".
class PosixFileOps final : public FileOps {
 public:
  void write_file_durable(const std::filesystem::path& path,
                          const std::vector<std::uint8_t>& data) override {
    std::string error;
    if (!common::write_file_durable(path, data.data(), data.size(), error)) {
      throw CheckpointError(CheckpointErrorKind::kWriteFailed, error);
    }
  }

  void rename_durable(const std::filesystem::path& from,
                      const std::filesystem::path& to) override {
    std::string error;
    if (!common::rename_durable(from, to, error)) {
      throw CheckpointError(CheckpointErrorKind::kWriteFailed, error);
    }
  }

  void remove_file(const std::filesystem::path& path) noexcept override {
    common::remove_file_quiet(path);
  }
};

}  // namespace

std::vector<std::uint8_t> encode_checkpoint_frame(
    std::uint64_t config_fingerprint, std::uint64_t interval_index,
    const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kCheckpointHeaderBytes + payload.size());
  common::ByteWriter w(out);
  w.u32(kCheckpointMagic);
  w.u32(kCheckpointVersion);
  w.u32(kCheckpointPayloadKind);
  w.u32(0);  // reserved
  w.u64(config_fingerprint);
  w.u64(interval_index);
  w.u64(payload.size());
  w.u32(common::crc32(payload.data(), payload.size()));
  w.u32(common::crc32(out.data(), out.size()));  // header CRC
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

CheckpointFrame decode_checkpoint_frame(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kCheckpointHeaderBytes) {
    throw CheckpointError(CheckpointErrorKind::kTruncated,
                          "file ends inside the " +
                              std::to_string(kCheckpointHeaderBytes) +
                              "-byte header (" + std::to_string(bytes.size()) +
                              " bytes)");
  }
  const std::uint8_t* p = bytes.data();
  if (common::load_le<std::uint32_t>(p) != kCheckpointMagic) {
    throw CheckpointError(CheckpointErrorKind::kBadMagic,
                          "leading bytes are not \"SCDP\"");
  }
  const std::uint32_t header_crc = common::load_le<std::uint32_t>(p + 44);
  if (common::crc32(p, 44) != header_crc) {
    throw CheckpointError(CheckpointErrorKind::kBadCrc,
                          "header CRC32 mismatch");
  }
  const std::uint32_t version = common::load_le<std::uint32_t>(p + 4);
  if (version != kCheckpointVersion) {
    throw CheckpointError(CheckpointErrorKind::kBadVersion,
                          "version " + std::to_string(version) +
                              " is not the supported version " +
                              std::to_string(kCheckpointVersion));
  }
  const std::uint32_t kind = common::load_le<std::uint32_t>(p + 8);
  if (kind != kCheckpointPayloadKind) {
    // Kind 2 was the retired parallel front-end wrapper; its payload is not
    // an engine snapshot and is never parsed as one.
    throw CheckpointError(
        CheckpointErrorKind::kBadPayload,
        "payload kind " + std::to_string(kind) +
            " is not an engine snapshot (kind " +
            std::to_string(kCheckpointPayloadKind) + ")");
  }
  CheckpointFrame parsed;
  parsed.config_fingerprint = common::load_le<std::uint64_t>(p + 16);
  parsed.interval_index = common::load_le<std::uint64_t>(p + 24);
  const std::uint64_t payload_len = common::load_le<std::uint64_t>(p + 32);
  const std::uint64_t body = bytes.size() - kCheckpointHeaderBytes;
  if (body < payload_len) {
    throw CheckpointError(CheckpointErrorKind::kTruncated,
                          "payload holds " + std::to_string(body) + " of " +
                              std::to_string(payload_len) + " bytes");
  }
  if (body > payload_len) {
    throw CheckpointError(CheckpointErrorKind::kBadPayload,
                          std::to_string(body - payload_len) +
                              " trailing bytes after the payload");
  }
  const std::uint32_t payload_crc = common::load_le<std::uint32_t>(p + 40);
  if (common::crc32(p + kCheckpointHeaderBytes,
                    static_cast<std::size_t>(payload_len)) != payload_crc) {
    throw CheckpointError(CheckpointErrorKind::kBadCrc,
                          "payload CRC32 mismatch");
  }
  parsed.payload.assign(bytes.begin() + static_cast<std::ptrdiff_t>(
                                            kCheckpointHeaderBytes),
                        bytes.end());
  return parsed;
}

namespace {

/// The checkpoint instruments when metrics are on; null otherwise, and
/// always null in a SCD_OBS_ENABLED=0 build, so every counter site is one
/// null test.
[[nodiscard]] CheckpointInstruments* instruments(bool metrics) {
  return SCD_OBS_ENABLED && metrics ? &CheckpointInstruments::global()
                                    : nullptr;
}

[[nodiscard]] std::vector<std::uint8_t> read_file(
    const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw CheckpointError(CheckpointErrorKind::kTruncated,
                          "cannot open " + path.string());
  }
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

constexpr const char* kCheckpointPrefix = "ckpt-";
constexpr const char* kCheckpointSuffix = ".scdc";
constexpr const char* kTempSuffix = ".tmp";

}  // namespace

FileOps& real_file_ops() noexcept {
  static PosixFileOps ops;
  return ops;
}

std::string checkpoint_filename(std::uint64_t interval_index) {
  std::string digits = std::to_string(interval_index);
  digits.insert(0, 20 - std::min<std::size_t>(20, digits.size()), '0');
  return kCheckpointPrefix + digits + kCheckpointSuffix;
}

namespace {

/// The interval index encoded in a checkpoint filename, or nullopt when the
/// part between prefix and suffix is not a pure decimal number (hand-renamed
/// files, foreign tools). Writer-produced names are 20-digit zero-padded,
/// but the listing must not ASSUME that: "ckpt-5.scdc" sorted
/// lexicographically lands above "ckpt-00000000000000000100.scdc", which
/// once made recovery order depend on how a file had been (re)named.
[[nodiscard]] std::optional<std::uint64_t> parse_checkpoint_interval(
    const std::string& name) {
  const std::size_t prefix_len = std::string(kCheckpointPrefix).size();
  const std::size_t suffix_len = std::string(kCheckpointSuffix).size();
  if (name.size() <= prefix_len + suffix_len) return std::nullopt;
  const std::string digits =
      name.substr(prefix_len, name.size() - prefix_len - suffix_len);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  // 20 decimal digits can exceed 2^64 - 1; reject overflow instead of
  // wrapping into a bogus (and possibly "newest") index.
  std::uint64_t value = 0;
  for (const char c : digits) {
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return std::nullopt;
    }
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace

std::vector<std::filesystem::path> list_checkpoints(
    const std::filesystem::path& directory) {
  struct Candidate {
    std::filesystem::path path;
    std::string name;
    std::optional<std::uint64_t> interval;
  };
  std::vector<Candidate> found;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with(kCheckpointPrefix) &&
        name.ends_with(kCheckpointSuffix)) {
      found.push_back({entry.path(), name, parse_checkpoint_interval(name)});
    }
  }
  // Newest (highest NUMERIC interval) first; names that do not parse sort
  // last. Two files claiming the same interval (e.g. a padded and an
  // unpadded spelling) tie-break on the filename, ascending — a total order
  // independent of directory-iteration order, so recover() probes the same
  // file first on every filesystem.
  std::sort(found.begin(), found.end(),
            [](const Candidate& a, const Candidate& b) {
              const bool a_valid = a.interval.has_value();
              const bool b_valid = b.interval.has_value();
              if (a_valid != b_valid) return a_valid;
              if (a_valid && *a.interval != *b.interval) {
                return *a.interval > *b.interval;
              }
              return a.name < b.name;
            });
  std::vector<std::filesystem::path> out;
  out.reserve(found.size());
  for (Candidate& candidate : found) out.push_back(std::move(candidate.path));
  return out;
}

// ---------------------------------------------------------------------------
// CheckpointWriter

CheckpointWriter::CheckpointWriter(CheckpointWriterOptions options,
                                   const core::PipelineConfig& config)
    : options_(std::move(options)),
      fingerprint_(checkpoint::config_fingerprint(config)),
      ops_(options_.file_ops != nullptr ? options_.file_ops
                                        : &real_file_ops()) {
  if (options_.every < 1 || options_.keep < 1) {
    throw std::invalid_argument(
        "CheckpointWriter: every and keep must be >= 1");
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.directory, ec);
  if (ec) {
    throw CheckpointError(CheckpointErrorKind::kWriteFailed,
                          "create directory " + options_.directory.string() +
                              ": " + ec.message());
  }
}

bool CheckpointWriter::due(std::size_t intervals_closed) const noexcept {
  return intervals_closed > 0 && intervals_closed % options_.every == 0;
}

std::filesystem::path CheckpointWriter::write(
    std::uint64_t interval_index, const std::vector<std::uint8_t>& state) {
  CheckpointInstruments* obs = instruments(options_.metrics);
  // One clock for the latency histogram and the trace span; a failed write
  // is timed too (its duration is what a failing disk looks like).
  const obs::StageTimer timer(obs != nullptr ? &obs->snapshot_seconds : nullptr,
                              "checkpoint_write", "checkpoint", interval_index);
  const std::filesystem::path final_path =
      options_.directory / checkpoint_filename(interval_index);
  const std::filesystem::path temp_path =
      final_path.string() + kTempSuffix;
  const std::vector<std::uint8_t> framed =
      encode_checkpoint_frame(fingerprint_, interval_index, state);
  try {
    ops_->write_file_durable(temp_path, framed);
    ops_->rename_durable(temp_path, final_path);
  } catch (const std::exception& e) {
    // Leave no temp file behind; the previous checkpoints are untouched.
    ops_->remove_file(temp_path);
    if (obs != nullptr) obs->write_failures.inc();
    // A failing checkpoint is exactly when the recent past matters: capture
    // it before rethrowing (the dump itself runs on the recorder's thread).
    obs::FlightRecorder::notify_checkpoint_error("checkpoint write",
                                                 e.what());
    throw;
  } catch (...) {
    ops_->remove_file(temp_path);
    if (obs != nullptr) obs->write_failures.inc();
    throw;
  }
  prune();
  if (obs != nullptr) {
    obs->snapshots.inc();
    obs->snapshot_bytes.inc(framed.size());
    obs->last_snapshot_bytes.set(static_cast<double>(framed.size()));
  }
  return final_path;
}

namespace {

/// The interval-close callback both attach() overloads install: snapshot
/// on the writer's cadence, log and count a failed write, never throw.
template <typename Pipeline>
void install_snapshot_callback(CheckpointWriter& writer, Pipeline& pipeline) {
  Pipeline* p = &pipeline;
  pipeline.set_interval_close_callback([&writer, p](std::size_t closed) {
    if (!writer.due(closed)) return;
    try {
      (void)writer.write(p->position().interval_index, p->save_state());
    } catch (const std::exception& e) {
      SCD_WARN() << "checkpoint write failed (stream continues): "
                 << e.what();
    }
  });
}

}  // namespace

void CheckpointWriter::attach(core::ChangeDetectionPipeline& pipeline) {
  install_snapshot_callback(*this, pipeline);
}

void CheckpointWriter::detach() noexcept {
  if (attached_ == nullptr) return;
  try {
    // Write any still-due snapshot, then uninstall. drain() returns with
    // the merger idle and no epoch can close while this (producer) thread
    // is here, so clearing the callback cannot race a delivery.
    attached_->drain();
  } catch (...) {
    // A merge failure is already parked in the pipeline and rethrows from
    // its next add()/flush(); detaching must still complete.
  }
  attached_->set_interval_close_callback(nullptr);
  attached_ = nullptr;
}

CheckpointWriter::~CheckpointWriter() { detach(); }

void CheckpointWriter::attach(ingest::ParallelPipeline& pipeline) {
  attached_ = &pipeline;
  install_snapshot_callback(*this, pipeline);
}

void CheckpointWriter::prune() noexcept {
  try {
    const std::vector<std::filesystem::path> existing =
        list_checkpoints(options_.directory);
    for (std::size_t i = options_.keep; i < existing.size(); ++i) {
      ops_->remove_file(existing[i]);
    }
    // Stray temp files are always garbage from an interrupted writer.
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(options_.directory, ec)) {
      if (entry.path().extension() == kTempSuffix) {
        ops_->remove_file(entry.path());
      }
    }
  } catch (...) {
    // Retention is best-effort; an unreadable directory entry must not fail
    // a successful snapshot.
  }
}

// ---------------------------------------------------------------------------
// recover()

namespace {

/// Shared scan loop: `try_restore(payload)` builds a scratch pipeline,
/// restores into it and swaps it into place, throwing on rejection.
template <typename TryRestore>
RecoverResult recover_scan(const std::filesystem::path& directory,
                           std::uint64_t expected_fingerprint, bool metrics,
                           TryRestore&& try_restore) {
  RecoverResult result;
  CheckpointInstruments* obs = instruments(metrics);
  for (const std::filesystem::path& path : list_checkpoints(directory)) {
    try {
      const CheckpointFrame parsed = decode_checkpoint_frame(read_file(path));
      if (parsed.config_fingerprint != expected_fingerprint) {
        throw CheckpointError(
            CheckpointErrorKind::kConfigMismatch,
            path.string() +
                " was written by a pipeline with a different configuration "
                "(fingerprint mismatch); refusing to restore");
      }
      try_restore(parsed.payload);
      result.restored = true;
      result.path = path;
      result.interval_index = parsed.interval_index;
      if (obs != nullptr) obs->restores.inc();
      return result;
    } catch (const CheckpointError& e) {
      if (e.checkpoint_kind() == CheckpointErrorKind::kConfigMismatch) throw;
      SCD_WARN() << "recover: skipping " << path.string() << ": " << e.what();
    } catch (const sketch::SerializeError& e) {
      // Framing verified but the engine rejected the payload — version
      // drift or a corruption the CRC missed. An older checkpoint may
      // still be good.
      SCD_WARN() << "recover: skipping " << path.string() << ": " << e.what();
    }
    ++result.skipped;
    if (obs != nullptr) obs->restore_skipped.inc();
  }
  return result;
}

}  // namespace

RecoverResult recover(const std::filesystem::path& directory,
                      core::ChangeDetectionPipeline& pipeline) {
  const core::PipelineConfig& config = pipeline.config();
  return recover_scan(
      directory, checkpoint::config_fingerprint(config),
      config.metrics, [&](const std::vector<std::uint8_t>& payload) {
        // Restore into a scratch pipeline first: a mid-restore throw must
        // not leave the caller's pipeline half-mutated.
        core::ChangeDetectionPipeline scratch(config);
        scratch.restore_state(payload);
        pipeline = std::move(scratch);
      });
}

RecoverResult recover(const std::filesystem::path& directory,
                      ingest::ParallelPipeline& pipeline) {
  const core::PipelineConfig& config = pipeline.config();
  const ingest::ParallelConfig parallel = pipeline.parallel_config();
  return recover_scan(
      directory, checkpoint::config_fingerprint(config),
      config.metrics, [&](const std::vector<std::uint8_t>& payload) {
        ingest::ParallelPipeline scratch(config, parallel);
        scratch.restore_state(payload);
        pipeline = std::move(scratch);
      });
}

}  // namespace scd::checkpoint
