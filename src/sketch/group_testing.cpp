#include "sketch/group_testing.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "sketch/median.h"

namespace scd::sketch {

GroupTestingSketch::GroupTestingSketch(FamilyPtr family, std::size_t k)
    : family_(std::move(family)), k_(k) {
  if (family_ == nullptr) {
    throw std::invalid_argument("GroupTestingSketch: null hash family");
  }
  if (!hash::valid_bucket_count(k_) || k_ < 2) {
    throw std::invalid_argument(
        "GroupTestingSketch: k must be a power of two in [2, 65536]");
  }
  if (family_->rows() < 1 || family_->rows() > kMaxRows) {
    throw std::invalid_argument("GroupTestingSketch: rows must be in [1, 32]");
  }
  cells_.assign(family_->rows() * k_ * kCellStride, 0.0);
}

void GroupTestingSketch::update(std::uint64_t key, double u) noexcept {
  assert((key >> kKeyBits) == 0 &&
         "key exceeds the group-testing bit counters; 64-bit key kinds are "
         "not supported by this family");
  const auto key32 = static_cast<std::uint32_t>(key);
  const std::uint64_t mask = k_ - 1;
  for (std::size_t row = 0; row < depth(); ++row) {
    const std::size_t bucket = family_->hash16(row, key32) & mask;
    double* cell = &cells_[cell_index(row, bucket)];
    cell[0] += u;
    std::uint32_t bits = key32;
    while (bits != 0) {
      const unsigned b = static_cast<unsigned>(__builtin_ctz(bits));
      cell[1 + b] += u;
      bits &= bits - 1;
    }
  }
}

double GroupTestingSketch::row_sum(std::size_t row) const noexcept {
  double sum = 0.0;
  for (std::size_t bucket = 0; bucket < k_; ++bucket) {
    sum += cells_[cell_index(row, bucket)];
  }
  return sum;
}

double GroupTestingSketch::estimate_with(
    std::uint64_t key, std::span<const double> row_sums) const noexcept {
  const std::uint64_t mask = k_ - 1;
  const auto kd = static_cast<double>(k_);
  std::array<double, kMaxRows> est;
  for (std::size_t row = 0; row < depth(); ++row) {
    const std::size_t bucket = family_->hash16(row, key) & mask;
    const double total = cells_[cell_index(row, bucket)];
    est[row] = (total - row_sums[row] / kd) / (1.0 - 1.0 / kd);
  }
  return median_inplace(std::span<double>(est.data(), depth()));
}

double GroupTestingSketch::estimate(std::uint64_t key) const noexcept {
  std::array<double, kMaxRows> sums;
  for (std::size_t row = 0; row < depth(); ++row) sums[row] = row_sum(row);
  return estimate_with(key, std::span<const double>(sums.data(), depth()));
}

double GroupTestingSketch::estimate_f2() const noexcept {
  const auto kd = static_cast<double>(k_);
  std::array<double, kMaxRows> est;
  for (std::size_t row = 0; row < depth(); ++row) {
    double sq = 0.0;
    for (std::size_t bucket = 0; bucket < k_; ++bucket) {
      const double total = cells_[cell_index(row, bucket)];
      sq += total * total;
    }
    const double sum = row_sum(row);
    est[row] = (kd * sq - sum * sum) / (kd - 1.0);
  }
  return median_inplace(std::span<double>(est.data(), depth()));
}

double GroupTestingSketch::estimate_l2() const noexcept {
  return std::sqrt(std::max(estimate_f2(), 0.0));
}

std::vector<RecoveredHeavyKey> GroupTestingSketch::recover_heavy_keys(
    double threshold_abs, std::size_t* candidates_swept) const {
  const std::uint64_t mask = k_ - 1;
  std::unordered_set<std::uint32_t> candidates;
  for (std::size_t row = 0; row < depth(); ++row) {
    for (std::size_t bucket = 0; bucket < k_; ++bucket) {
      const double* cell = &cells_[cell_index(row, bucket)];
      const double total = cell[0];
      if (std::abs(total) < threshold_abs) continue;
      // Read the dominating key's bits out of the bit counters.
      std::uint32_t key = 0;
      for (unsigned b = 0; b < kKeyBits; ++b) {
        if (std::abs(cell[1 + b]) > std::abs(total) / 2.0) key |= 1u << b;
      }
      // The candidate must actually hash into this bucket in this row;
      // bit-read corruption from colliding keys fails this test.
      if ((family_->hash16(row, key) & mask) == bucket) candidates.insert(key);
    }
  }
  if (candidates_swept != nullptr) *candidates_swept = candidates.size();
  std::array<double, kMaxRows> sums;
  for (std::size_t row = 0; row < depth(); ++row) sums[row] = row_sum(row);
  const std::span<const double> sums_span(sums.data(), depth());
  std::vector<RecoveredHeavyKey> recovered;
  recovered.reserve(candidates.size());
  for (const std::uint32_t key : candidates) {
    const double value = estimate_with(key, sums_span);
    if (std::abs(value) >= threshold_abs) {
      recovered.push_back(RecoveredHeavyKey{key, value});
    }
  }
  std::sort(recovered.begin(), recovered.end(),
            [](const RecoveredHeavyKey& a, const RecoveredHeavyKey& b) {
              const double aa = std::abs(a.value);
              const double bb = std::abs(b.value);
              if (aa != bb) return aa > bb;
              return a.key < b.key;
            });
  return recovered;
}

std::vector<RecoveredKey> GroupTestingSketch::recover(
    double threshold_abs) const {
  const std::vector<RecoveredHeavyKey> wide = recover_heavy_keys(threshold_abs);
  std::vector<RecoveredKey> out;
  out.reserve(wide.size());
  for (const RecoveredHeavyKey& r : wide) {
    out.push_back(RecoveredKey{static_cast<std::uint32_t>(r.key), r.value});
  }
  return out;
}

void GroupTestingSketch::set_zero() noexcept {
  std::fill(cells_.begin(), cells_.end(), 0.0);
}

void GroupTestingSketch::scale(double c) noexcept {
  for (double& v : cells_) v *= c;
}

void GroupTestingSketch::add_scaled(const GroupTestingSketch& other,
                                    double c) {
  if (!compatible(other)) {
    throw std::invalid_argument(
        "GroupTestingSketch::add_scaled: incompatible sketches (family or "
        "width mismatch)");
  }
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    cells_[i] += c * other.cells_[i];
  }
}

}  // namespace scd::sketch
