// Seed-corpus generator for the fuzz harnesses.
//
// Usage: make_fuzz_corpus <output-dir>
//
// Writes wire/, sketch/ and checkpoint/ subdirectories, each seeded with
// valid encodings produced by the real encoders plus truncated and
// bit-flipped variants — so coverage starts inside the parsers' deep paths
// instead of dying at the magic check, and the gcc corpus-replay smoke
// exercises both accept and every typed-reject branch.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "common/crc32.h"
#include "common/little_endian.h"
#include "net/wire.h"
#include "sketch/kary_sketch.h"
#include "sketch/mv_sketch.h"
#include "sketch/serialize.h"

namespace {

void write_seed(const std::filesystem::path& dir, const std::string& name,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "make_fuzz_corpus: write failed: %s\n",
                 (dir / name).string().c_str());
    std::exit(1);
  }
}

/// Emits `bytes` plus the standard mutations every parser must reject
/// cleanly: a truncation inside the header, a truncation inside the body,
/// and a single flipped byte (CRC violation).
void write_variants(const std::filesystem::path& dir, const std::string& stem,
                    const std::vector<std::uint8_t>& bytes) {
  write_seed(dir, stem + ".bin", bytes);
  if (bytes.size() > 4) {
    write_seed(dir, stem + "-trunc-header.bin",
               {bytes.begin(), bytes.begin() + 4});
    write_seed(dir, stem + "-trunc-body.bin",
               {bytes.begin(), bytes.end() - 1});
  }
  if (!bytes.empty()) {
    std::vector<std::uint8_t> flipped = bytes;
    flipped[flipped.size() / 2] ^= 0x40;
    write_seed(dir, stem + "-bitflip.bin", flipped);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_fuzz_corpus <output-dir>\n");
    return 2;
  }
  const std::filesystem::path root(argv[1]);
  const std::filesystem::path wire_dir = root / "wire";
  const std::filesystem::path sketch_dir = root / "sketch";
  const std::filesystem::path ckpt_dir = root / "checkpoint";
  std::filesystem::create_directories(wire_dir);
  std::filesystem::create_directories(sketch_dir);
  std::filesystem::create_directories(ckpt_dir);

  // A small but non-trivial sketch, shared by the sketch and wire seeds.
  scd::sketch::FamilyRegistry registry;
  scd::sketch::KarySketch sketch(registry.tabulation(7, 3), 64);
  for (std::uint64_t key = 1; key <= 32; ++key) {
    sketch.update(key * 2654435761u, static_cast<double>(key));
  }
  const std::vector<std::uint8_t> packet = scd::sketch::sketch_to_bytes(sketch);
  write_variants(sketch_dir, "seed-packet", packet);

  // Invertible-family packet: same header layout, different kind byte, plus
  // the trailing candidate/vote arrays — seeds the vote-state validation
  // branches (non-finite vote, out-of-domain candidate) past the magic and
  // dimension checks.
  scd::sketch::MvSketch mv_sketch(registry.tabulation(7, 3), 64);
  for (std::uint64_t key = 1; key <= 32; ++key) {
    mv_sketch.update((key * 2654435761u) & 0xffffffffu,
                     static_cast<double>(key));
  }
  write_variants(sketch_dir, "seed-mv-packet",
                 scd::sketch::mv_sketch_to_bytes(mv_sketch));

  // Wire seeds: a Hello, a Bye, and an IntervalData carrying the packet.
  scd::net::FrameHeader hello;
  hello.type = scd::net::MessageType::kHello;
  hello.node_id = 3;
  hello.config_fingerprint = 0x1122334455667788ull;
  write_variants(wire_dir, "seed-hello", scd::net::encode_frame(hello, {}));

  scd::net::FrameHeader bye;
  bye.type = scd::net::MessageType::kBye;
  bye.node_id = 3;
  write_variants(wire_dir, "seed-bye", scd::net::encode_frame(bye, {}));

  scd::net::IntervalPayload payload;
  payload.start_s = 60.0;
  payload.len_s = 60.0;
  payload.records = 32;
  payload.sketch_packet = packet;
  payload.keys = {1, 2, 3, 5, 8, 13};
  const std::vector<std::uint8_t> payload_bytes =
      scd::net::encode_interval_payload(payload);
  write_variants(wire_dir, "seed-payload", payload_bytes);

  scd::net::FrameHeader data;
  data.type = scd::net::MessageType::kIntervalData;
  data.node_id = 3;
  data.interval_index = 17;
  data.config_fingerprint = 0x1122334455667788ull;
  write_variants(wire_dir, "seed-interval",
                 scd::net::encode_frame(data, payload_bytes));

  // Checkpoint seeds: a valid engine-snapshot frame, and a frame whose
  // payload_kind word is 2 — the retired parallel front-end wrapper — with a
  // valid header CRC, so the replay reaches the kind check and its typed
  // rejection.
  write_variants(ckpt_dir, "seed-serial",
                 scd::checkpoint::encode_checkpoint_frame(
                     0xfeedface12345678ull, 42, packet));
  std::vector<std::uint8_t> kind2 = scd::checkpoint::encode_checkpoint_frame(
      0xfeedface12345678ull, 43, {0x01, 0x02, 0x03});
  scd::common::store_le<std::uint32_t>(kind2.data() + 8, 2);
  scd::common::store_le<std::uint32_t>(kind2.data() + 44,
                                       scd::common::crc32(kind2.data(), 44));
  write_variants(ckpt_dir, "seed-parallel", kind2);

  std::printf("make_fuzz_corpus: seeded %s\n", root.string().c_str());
  return 0;
}
