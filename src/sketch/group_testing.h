// Group-testing sketch: k-ary sketch augmented with per-bit counters so that
// the keys of significant changes can be recovered *directly from the
// sketch*, with no key stream at all — the §3.3 option the paper attributes
// to combinatorial group testing (ref [14], "What's hot and what's not").
//
// Each (row, bucket) cell keeps the usual total plus one counter per key
// bit: updates add u to `total` and to `bit[b]` for every set bit b of the
// key. For a bucket dominated by one changed key, bit b of that key is 1
// iff |bit[b]| > |total|/2 — reading the key straight out of the counters.
// Candidates are validated against the row's hash function and deduplicated.
//
// Every counter is a linear function of the update stream, so this sketch
// is a LinearSignal like the plain k-ary sketch: the forecasting models run
// on it unchanged and key recovery can be performed on the *forecast error*
// sketch. The price is the paper's stated one: a 33x register blow-up and
// 33x UPDATE cost for 32-bit keys; keys are bound to 32 bits — there is no
// 64-bit group-testing variant (that would be 65 counters per cell). The
// invertible majority-vote sketch (sketch/mv_sketch.h) recovers keys at 3x
// memory for 32- and 64-bit keys, so it is the pipeline's recovery mode;
// this sketch stays as the §3.3 comparison point of bench_ext_key_recovery
// (docs/KEY_RECOVERY.md).
//
// Structural misuse (null family, bad shape, adding incompatible sketches)
// throws std::invalid_argument in all build types, matching
// BasicKarySketch's contract.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hash/tabulation_hash.h"
#include "sketch/kary_sketch.h"  // kMaxRows
#include "sketch/mv_sketch.h"    // RecoveredHeavyKey

namespace scd::sketch {

struct RecoveredKey {
  std::uint32_t key = 0;
  double value = 0.0;  // estimated change volume (median across rows)
};

class GroupTestingSketch {
 public:
  using Family = hash::TabulationHashFamily;
  using FamilyPtr = std::shared_ptr<const Family>;

  static constexpr unsigned kKeyBits = 32;

  /// K must be a power of two in [2, 2^16]. Memory: depth * K * 33 doubles.
  /// Throws std::invalid_argument on a null family or out-of-range shape.
  GroupTestingSketch(FamilyPtr family, std::size_t k);

  /// UPDATE. `key` must fit 32 bits (asserted in debug builds — the bit
  /// counters only cover kKeyBits).
  void update(std::uint64_t key, double u) noexcept;

  /// Estimates v_key from the totals (same estimator as the k-ary sketch).
  [[nodiscard]] double estimate(std::uint64_t key) const noexcept;

  /// Estimated second moment from the totals.
  [[nodiscard]] double estimate_f2() const noexcept;
  [[nodiscard]] double estimate_l2() const noexcept;

  /// Recovers keys whose |estimated value| >= threshold_abs. Keys are read
  /// out of buckets whose cell total clears the threshold, validated against
  /// the row hash, then re-estimated and filtered. Sorted by |value| desc.
  [[nodiscard]] std::vector<RecoveredKey> recover(double threshold_abs) const;

  /// Same sweep in the result type of the invertible sketch (64-bit keys,
  /// sorted by |value| descending, ties by key ascending).
  /// `candidates_swept`, when non-null, receives the pre-verification
  /// candidate count.
  [[nodiscard]] std::vector<RecoveredHeavyKey> recover_heavy_keys(
      double threshold_abs, std::size_t* candidates_swept = nullptr) const;

  // LinearSignal operations — forecasting works on this sketch directly.
  void set_zero() noexcept;
  void scale(double c) noexcept;

  /// *this += c * other. Throws std::invalid_argument unless the two
  /// sketches share the same family and width.
  void add_scaled(const GroupTestingSketch& other, double c);

  [[nodiscard]] bool compatible(const GroupTestingSketch& other)
      const noexcept {
    return family_ == other.family_ && k_ == other.k_;
  }

  [[nodiscard]] std::size_t depth() const noexcept { return family_->rows(); }
  [[nodiscard]] std::size_t width() const noexcept { return k_; }
  [[nodiscard]] const FamilyPtr& family() const noexcept { return family_; }
  [[nodiscard]] std::size_t table_bytes() const noexcept {
    return cells_.size() * sizeof(double);
  }

 private:
  static constexpr std::size_t kCellStride = 1 + kKeyBits;  // total + bits

  [[nodiscard]] std::size_t cell_index(std::size_t row,
                                       std::size_t bucket) const noexcept {
    return (row * k_ + bucket) * kCellStride;
  }
  [[nodiscard]] double row_sum(std::size_t row) const noexcept;
  [[nodiscard]] double estimate_with(std::uint64_t key,
                                     std::span<const double> row_sums)
      const noexcept;

  FamilyPtr family_;
  std::size_t k_;
  std::vector<double> cells_;  // [row][bucket][total, bit0..bit31]
};

}  // namespace scd::sketch
