#include "detect/detection.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/random.h"

namespace scd::detect {
namespace {

std::vector<KeyError> sample_ranked() {
  std::vector<KeyError> errors{
      {1, 3.0}, {2, -10.0}, {3, 0.5}, {4, 7.0}, {5, -1.0}};
  sort_by_abs_error(errors);
  return errors;  // keys by |e| desc: 2(10), 4(7), 1(3), 5(1), 3(0.5)
}

TEST(SortByAbsError, OrdersByMagnitudeDescending) {
  const auto ranked = sample_ranked();
  EXPECT_EQ(ranked[0].key, 2u);
  EXPECT_EQ(ranked[1].key, 4u);
  EXPECT_EQ(ranked[2].key, 1u);
  EXPECT_EQ(ranked[3].key, 5u);
  EXPECT_EQ(ranked[4].key, 3u);
}

TEST(SortByAbsError, TieBrokenByKey) {
  std::vector<KeyError> errors{{9, -2.0}, {3, 2.0}, {7, 2.0}};
  sort_by_abs_error(errors);
  EXPECT_EQ(errors[0].key, 3u);
  EXPECT_EQ(errors[1].key, 7u);
  EXPECT_EQ(errors[2].key, 9u);
}

TEST(RankByAbsError, EvaluatesCallableOverKeys) {
  const std::vector<std::uint64_t> keys{10, 20, 30};
  const auto ranked = rank_by_abs_error(
      keys, [](std::uint64_t key) { return key == 20 ? -100.0 : 1.0; });
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].key, 20u);
  EXPECT_EQ(ranked[0].error, -100.0);
}

TEST(TopN, TruncatesOrReturnsAll) {
  const auto ranked = sample_ranked();
  EXPECT_EQ(top_n(ranked, 2).size(), 2u);
  EXPECT_EQ(top_n(ranked, 2)[1].key, 4u);
  EXPECT_EQ(top_n(ranked, 100).size(), 5u);
  EXPECT_EQ(top_n(ranked, 0).size(), 0u);
}

TEST(AboveThreshold, CutsAtFractionOfL2) {
  const auto ranked = sample_ranked();
  // L2 = sqrt(100+49+9+1+0.25) = sqrt(159.25) ~ 12.62.
  const double l2 = 12.62;
  const auto flagged = above_threshold(ranked, 0.5, l2);  // cut ~ 6.31
  ASSERT_EQ(flagged.size(), 2u);
  EXPECT_EQ(flagged[0].key, 2u);
  EXPECT_EQ(flagged[1].key, 4u);
}

TEST(AboveThreshold, BoundaryIsInclusive) {
  std::vector<KeyError> errors{{1, 5.0}, {2, 4.0}};
  const auto flagged = above_threshold(errors, 0.5, 10.0);  // cut = 5.0
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0].key, 1u);
}

TEST(AboveThreshold, ZeroFractionFlagsEverything) {
  const auto ranked = sample_ranked();
  EXPECT_EQ(above_threshold(ranked, 0.0, 100.0).size(), ranked.size());
}

TEST(AboveThreshold, HugeFractionFlagsNothing) {
  const auto ranked = sample_ranked();
  EXPECT_EQ(above_threshold(ranked, 10.0, 100.0).size(), 0u);
}

TEST(MakeAlarms, CopiesFieldsAndAnnotates) {
  const auto ranked = sample_ranked();
  const auto alarms = make_alarms(top_n(ranked, 2), 17, 6.5);
  ASSERT_EQ(alarms.size(), 2u);
  EXPECT_EQ(alarms[0].interval, 17u);
  EXPECT_EQ(alarms[0].key, 2u);
  EXPECT_EQ(alarms[0].error, -10.0);
  EXPECT_EQ(alarms[0].threshold_abs, 6.5);
}

TEST(MakeAlarms, EmptyInputYieldsNoAlarms) {
  EXPECT_TRUE(make_alarms({}, 0, 1.0).empty());
}

// ---- Threshold-first / top-n-first selection ------------------------------
// rank_above_threshold and rank_top_n must equal the full ranking followed by
// above_threshold / top_n, element for element (key and error bits).

/// A batched error source over a fixed key -> error table.
struct TableErrors {
  const std::unordered_map<std::uint64_t, double>* table;
  void operator()(std::span<const std::uint64_t> keys,
                  std::span<double> out) const {
    for (std::size_t j = 0; j < keys.size(); ++j) out[j] = table->at(keys[j]);
  }
};

void expect_same(std::span<const KeyError> expected,
                 std::span<const KeyError> actual, const char* what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].key, expected[i].key) << what << " at " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual[i].error),
              std::bit_cast<std::uint64_t>(expected[i].error))
        << what << " at " << i;
  }
}

void expect_selection_matches_ranking(
    const std::vector<std::uint64_t>& keys,
    const std::unordered_map<std::uint64_t, double>& table) {
  const TableErrors errors{&table};
  const auto ranked = rank_by_abs_error(
      keys, [&table](std::uint64_t key) { return table.at(key); });
  for (const double fraction : {0.0, 0.05, 0.3, 1.0, 2.0}) {
    for (const double l2 : {0.0, 1.0, 7.5}) {
      expect_same(above_threshold(ranked, fraction, l2),
                  rank_above_threshold(keys, errors, fraction, l2),
                  "threshold");
    }
  }
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, keys.size() / 2,
        keys.size(), keys.size() + 5}) {
    expect_same(top_n(ranked, n), rank_top_n(keys, errors, n), "top-n");
  }
}

TEST(ThresholdFirstSelection, EmptyInput) {
  const std::unordered_map<std::uint64_t, double> table;
  const TableErrors errors{&table};
  EXPECT_TRUE(rank_above_threshold({}, errors, 0.0, 1.0).empty());
  EXPECT_TRUE(rank_top_n({}, errors, 10).empty());
}

TEST(ThresholdFirstSelection, TiesSignsAndNegativeZero) {
  // Equal |error| with opposite signs, both zeros, and a cut that lands
  // exactly on a tie group.
  const std::vector<std::uint64_t> keys{9, 2, 7, 4, 1, 8, 3, 0};
  const std::vector<double> values{-2.0, 2.0, 2.0, -0.0, 0.0, -5.0, 5.0, -2.0};
  std::unordered_map<std::uint64_t, double> table;
  for (std::size_t i = 0; i < keys.size(); ++i) table[keys[i]] = values[i];
  expect_selection_matches_ranking(keys, table);
  const auto survivors = rank_above_threshold(keys, TableErrors{&table}, 1.0,
                                              2.0);
  ASSERT_EQ(survivors.size(), 6u);  // |e| >= 2: the fives, then the twos
  EXPECT_EQ(survivors[0].key, 3u);
  EXPECT_EQ(survivors[1].key, 8u);
  EXPECT_EQ(survivors[2].key, 0u);
}

TEST(ThresholdFirstSelection, MatchesFullRankingOnRandomInputs) {
  common::Rng rng(23);
  for (int trial = 0; trial < 40; ++trial) {
    // Past the internal block size on some trials; errors drawn from a
    // small grid so ties (and opposite-sign ties) are common.
    const std::size_t n = trial % 5 == 0 ? 2500 : rng.next_below(60);
    std::vector<std::uint64_t> keys;
    std::unordered_map<std::uint64_t, double> table;
    while (keys.size() < n) {
      const std::uint64_t key = rng.next_below(1u << 20);
      if (table.contains(key)) continue;
      const double magnitude = static_cast<double>(rng.next_below(8)) * 0.5;
      table[key] = rng.next_below(2) == 0 ? -magnitude : magnitude;
      keys.push_back(key);
    }
    expect_selection_matches_ranking(keys, table);
  }
}

}  // namespace
}  // namespace scd::detect
