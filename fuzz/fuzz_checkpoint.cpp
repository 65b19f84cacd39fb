// Fuzz target: the checkpoint file parser (checkpoint/checkpoint.h).
//
// decode_checkpoint_frame is the exact validation recover() runs on
// untrusted on-disk bytes after a crash — magic, header CRC, version,
// payload kind, length, payload CRC. The only legal rejection is the typed
// CheckpointError. Accepted frames are round-tripped through
// encode_checkpoint_frame and must re-parse to the same header fields.
#include <cstddef>
#include <cstdint>
#include <vector>

#include "checkpoint/checkpoint.h"

#include "fuzz_driver.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::vector<std::uint8_t> bytes(data, data + size);
  try {
    const scd::checkpoint::CheckpointFrame frame =
        scd::checkpoint::decode_checkpoint_frame(bytes);
    const std::vector<std::uint8_t> reencoded =
        scd::checkpoint::encode_checkpoint_frame(
            frame.config_fingerprint, frame.interval_index, frame.payload);
    const scd::checkpoint::CheckpointFrame again =
        scd::checkpoint::decode_checkpoint_frame(reencoded);
    if (again.config_fingerprint != frame.config_fingerprint ||
        again.interval_index != frame.interval_index ||
        again.payload != frame.payload) {
      __builtin_trap();  // round-trip divergence is a parser bug
    }
  } catch (const scd::checkpoint::CheckpointError&) {
    // Typed rejection: the contract.
  }
  return 0;
}
