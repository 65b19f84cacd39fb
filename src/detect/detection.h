// Change-detection primitives over an arbitrary error source (§3.3).
//
// An ErrorSource maps a key to its (estimated or exact) forecast error for
// the current interval; the two instantiations are the k-ary error sketch's
// ESTIMATE and a lookup into the per-flow error vector. A BatchErrorSource
// fills a block of errors at once (the sketch's estimate_batch); the
// selections over it keep only what the criterion reports. The detection
// criteria — top-N ranking and L2-relative thresholding — are shared.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "detect/alarm.h"

namespace scd::detect {

template <typename F>
concept ErrorSource = requires(const F f, std::uint64_t key) {
  { f(key) } -> std::convertible_to<double>;
};

/// A batched error source: fills out[j] with the error of keys[j] (the
/// k-ary error sketch's estimate_batch).
template <typename F>
concept BatchErrorSource = requires(const F f, std::span<double> out) {
  f(std::span<const std::uint64_t>{}, out);
};

/// The ranking order: |error| descending, key ascending on ties — a strict
/// total order over distinct keys, so every ranking is deterministic.
[[nodiscard]] inline bool ranks_before(const KeyError& a,
                                       const KeyError& b) noexcept {
  const double ea = std::abs(a.error);
  const double eb = std::abs(b.error);
  if (ea != eb) return ea > eb;
  return a.key < b.key;
}

/// Sorts in-place by |error| descending, key ascending on ties.
inline void sort_by_abs_error(std::vector<KeyError>& errors) {
  std::sort(errors.begin(), errors.end(), ranks_before);
}

/// Evaluates the error of every candidate key; returns pairs sorted by
/// |error| descending (ties broken by key for determinism).
template <ErrorSource F>
[[nodiscard]] std::vector<KeyError> rank_by_abs_error(
    std::span<const std::uint64_t> keys, const F& error_of) {
  std::vector<KeyError> ranked;
  ranked.reserve(keys.size());
  for (const std::uint64_t key : keys) ranked.push_back({key, error_of(key)});
  sort_by_abs_error(ranked);
  return ranked;
}

/// First n entries of an already-ranked list (whole list if shorter).
[[nodiscard]] inline std::span<const KeyError> top_n(
    std::span<const KeyError> ranked, std::size_t n) noexcept {
  return ranked.subspan(0, std::min(n, ranked.size()));
}

/// Keys whose |error| >= fraction * l2_norm (the thresholding detection
/// criterion of §5.2.2). `ranked` must be sorted by |error| descending.
[[nodiscard]] inline std::span<const KeyError> above_threshold(
    std::span<const KeyError> ranked, double fraction, double l2_norm) noexcept {
  const double cut = fraction * l2_norm;
  const auto it = std::partition_point(
      ranked.begin(), ranked.end(),
      [cut](const KeyError& e) { return std::abs(e.error) >= cut; });
  return ranked.subspan(0, static_cast<std::size_t>(it - ranked.begin()));
}

namespace detail {

/// Runs `errors_of` over `keys` in L1-sized blocks and hands each
/// (key, error) pair to `take`, in key order.
template <BatchErrorSource F, typename Take>
void for_each_error(std::span<const std::uint64_t> keys, const F& errors_of,
                    Take take) {
  constexpr std::size_t kBlock = 1024;
  std::array<double, kBlock> errors;
  for (std::size_t base = 0; base < keys.size(); base += kBlock) {
    const auto block = keys.subspan(base, std::min(kBlock, keys.size() - base));
    errors_of(block, std::span<double>(errors.data(), block.size()));
    for (std::size_t j = 0; j < block.size(); ++j) take(block[j], errors[j]);
  }
}

}  // namespace detail

/// Threshold-first ranking: the keys whose |error| >= fraction * l2_norm, in
/// ranking order. Equals above_threshold(rank_by_abs_error(keys, ...),
/// fraction, l2_norm) element for element, but keeps only the survivors
/// while the errors are computed and sorts just those — under the paper's
/// threshold at most ~1/fraction^2 keys survive, out of every distinct key.
template <BatchErrorSource F>
[[nodiscard]] std::vector<KeyError> rank_above_threshold(
    std::span<const std::uint64_t> keys, const F& errors_of, double fraction,
    double l2_norm) {
  const double cut = fraction * l2_norm;
  std::vector<KeyError> survivors;
  const auto keep = [&survivors, cut](std::uint64_t key, double error) {
    if (std::abs(error) >= cut) survivors.push_back({key, error});
  };
  detail::for_each_error(keys, errors_of, keep);
  sort_by_abs_error(survivors);
  return survivors;
}

/// Top-n-first ranking: the first min(n, keys.size()) entries of
/// rank_by_abs_error(keys, ...), element for element, selected with
/// nth_element so only those n are sorted.
template <BatchErrorSource F>
[[nodiscard]] std::vector<KeyError> rank_top_n(
    std::span<const std::uint64_t> keys, const F& errors_of, std::size_t n) {
  std::vector<KeyError> ranked;
  ranked.reserve(keys.size());
  const auto keep = [&ranked](std::uint64_t key, double error) {
    ranked.push_back({key, error});
  };
  detail::for_each_error(keys, errors_of, keep);
  if (n < ranked.size()) {
    const auto nth = ranked.begin() + static_cast<std::ptrdiff_t>(n);
    std::nth_element(ranked.begin(), nth, ranked.end(), ranks_before);
    ranked.erase(nth, ranked.end());
  }
  sort_by_abs_error(ranked);
  return ranked;
}

/// Converts threshold survivors into alarms for interval `interval`.
[[nodiscard]] inline std::vector<Alarm> make_alarms(
    std::span<const KeyError> flagged, std::size_t interval,
    double threshold_abs) {
  std::vector<Alarm> alarms;
  alarms.reserve(flagged.size());
  for (const KeyError& e : flagged) {
    alarms.push_back({interval, e.key, e.error, threshold_abs});
  }
  return alarms;
}

}  // namespace scd::detect
