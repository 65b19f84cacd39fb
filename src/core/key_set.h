// KeySet — the distinct keys of one interval, for key replay (§3.3).
//
// Replay needs, at interval close, every distinct key the interval saw. The
// set is fed once per record (serial engine, shard workers) and once per
// shard key (the engine's dedupe of a merged IntervalBatch), so it is on the
// per-record hot path of the paper's default mode.
//
// Layout: an insertion-order key log plus an open-addressing index over it
// (linear probing, load <= 1/2, Fibonacci hashing on the high bits).
// Occupancy lives in a separate bitmap, so every 64-bit value — 0 and
// UINT64_MAX included — is an ordinary key; no value is reserved as "empty".
// clear() empties the log and the bitmap but keeps every buffer, so a set
// reused interval after interval allocates only while it grows. Nothing is
// allocated before the first insert.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace scd::core {

class KeySet {
 public:
  /// Adds `key`; true when it was not in the set yet (it is then appended
  /// to the log).
  bool insert(std::uint64_t key) {
    if (2 * (log_.size() + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = slot_of(key);; i = (i + 1) & mask) {
      std::uint64_t& word = used_[i >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (i & 63);
      if ((word & bit) == 0) {
        word |= bit;
        slots_[i] = key;
        log_.push_back(key);
        return true;
      }
      if (slots_[i] == key) return false;
    }
  }

  /// Adds every key of `keys`, in order.
  void insert(std::span<const std::uint64_t> keys) {
    for (const std::uint64_t key : keys) insert(key);
  }

  /// The distinct keys, in first-insertion order.
  [[nodiscard]] std::span<const std::uint64_t> keys() const noexcept {
    return log_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return log_.size(); }
  [[nodiscard]] bool empty() const noexcept { return log_.empty(); }

  /// Empties the set; every buffer keeps its capacity.
  void clear() noexcept {
    log_.clear();
    std::fill(used_.begin(), used_.end(), 0);
  }

  /// Hands the key log to the caller and empties the set. `spare` becomes
  /// the new log buffer (cleared, capacity kept), so a caller that recycles
  /// handed-out logs keeps the set allocation-free.
  [[nodiscard]] std::vector<std::uint64_t> take_log(
      std::vector<std::uint64_t> spare) noexcept {
    spare.clear();
    std::vector<std::uint64_t> log = std::exchange(log_, std::move(spare));
    clear();
    return log;
  }

 private:
  static constexpr std::size_t kMinSlots = 1024;

  [[nodiscard]] std::size_t slot_of(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  /// Doubles the index (or creates it) and re-places the logged keys, which
  /// are distinct, so no probe compares keys.
  void grow() {
    const std::size_t slots = std::max(kMinSlots, 2 * slots_.size());
    slots_.resize(slots);
    used_.assign(slots / 64, 0);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
    const std::size_t mask = slots - 1;
    for (const std::uint64_t key : log_) {
      std::size_t i = slot_of(key);
      while ((used_[i >> 6] >> (i & 63)) & 1) i = (i + 1) & mask;
      used_[i >> 6] |= std::uint64_t{1} << (i & 63);
      slots_[i] = key;
    }
  }

  std::vector<std::uint64_t> log_;    // distinct keys, first-seen order
  std::vector<std::uint64_t> slots_;  // index: power-of-two slot count
  std::vector<std::uint64_t> used_;   // occupancy bitmap, one bit per slot
  // 64 - log2(slots_.size()); set by grow().
  unsigned shift_ = 0;
};

}  // namespace scd::core
