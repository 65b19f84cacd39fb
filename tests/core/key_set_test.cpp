// KeySet: the flat distinct-key set behind key replay. Every 64-bit value is
// a key (no reserved empty value), the log keeps first-insertion order, and
// clear()/take_log() leave a set that behaves like a fresh one.
#include "core/key_set.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <unordered_set>
#include <vector>

#include "common/random.h"

namespace scd::core {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

std::vector<std::uint64_t> as_vector(const KeySet& set) {
  return {set.keys().begin(), set.keys().end()};
}

TEST(KeySet, StartsEmpty) {
  const KeySet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(set.keys().empty());
}

TEST(KeySet, ZeroAndMaxAreOrdinaryKeys) {
  KeySet set;
  EXPECT_TRUE(set.insert(0));
  EXPECT_TRUE(set.insert(kMax));
  EXPECT_FALSE(set.insert(0));
  EXPECT_FALSE(set.insert(kMax));
  EXPECT_TRUE(set.insert(1));
  EXPECT_EQ(as_vector(set), (std::vector<std::uint64_t>{0, kMax, 1}));
}

TEST(KeySet, LogKeepsFirstInsertionOrder) {
  KeySet set;
  for (const std::uint64_t key : {5u, 3u, 5u, 9u, 3u, 1u, 9u}) set.insert(key);
  EXPECT_EQ(as_vector(set), (std::vector<std::uint64_t>{5, 3, 9, 1}));
}

TEST(KeySet, GrowsAndRehashesWithoutLosingKeys) {
  // Far past the first index size, with keys that share low and high bits
  // (multiples of 2^32, consecutive runs) next to random ones.
  KeySet set;
  std::vector<std::uint64_t> expected;
  std::unordered_set<std::uint64_t> seen;
  common::Rng rng(5);
  const auto add = [&](std::uint64_t key) {
    const bool fresh = seen.insert(key).second;
    EXPECT_EQ(set.insert(key), fresh) << key;
    if (fresh) expected.push_back(key);
  };
  for (std::uint64_t i = 0; i < 20000; ++i) {
    add(i << 32);
    add(i);
    add(kMax - i);
    add(rng.next_u64());
    add(rng.next_below(5000));  // repeats
  }
  EXPECT_EQ(set.size(), expected.size());
  EXPECT_EQ(as_vector(set), expected);
  for (const std::uint64_t key : expected) EXPECT_FALSE(set.insert(key));
  EXPECT_EQ(set.size(), expected.size());
}

TEST(KeySet, SpanInsertDedupes) {
  KeySet set;
  const std::vector<std::uint64_t> keys{4, 4, 0, 7, kMax, 0, 7, 4};
  set.insert(keys);
  EXPECT_EQ(as_vector(set), (std::vector<std::uint64_t>{4, 0, 7, kMax}));
  set.insert(std::vector<std::uint64_t>{});
  EXPECT_EQ(set.size(), 4u);
}

TEST(KeySet, ClearAndReuseAcrossEpochs) {
  KeySet set;
  for (std::uint64_t epoch = 0; epoch < 4; ++epoch) {
    // Each epoch overlaps the previous one's keys and shrinks or grows.
    const std::uint64_t n = epoch % 2 == 0 ? 5000 : 300;
    std::vector<std::uint64_t> expected;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t key = (i * 2654435761ULL + epoch * 100) % 7919;
      if (set.insert(key)) expected.push_back(key);
    }
    EXPECT_EQ(as_vector(set), expected) << epoch;
    set.clear();
    EXPECT_TRUE(set.empty());
    EXPECT_TRUE(set.insert(expected.front())) << "cleared key still present";
    set.clear();
  }
}

TEST(KeySet, TakeLogHandsOverKeysAndAdoptsSpare) {
  KeySet set;
  set.insert(std::vector<std::uint64_t>{3, 1, 3, 2});
  std::vector<std::uint64_t> spare{99, 98};
  spare.reserve(64);
  const std::vector<std::uint64_t> log = set.take_log(std::move(spare));
  EXPECT_EQ(log, (std::vector<std::uint64_t>{3, 1, 2}));
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.insert(1));  // the index was cleared with the log
  EXPECT_EQ(as_vector(set), (std::vector<std::uint64_t>{1}));
  // The next epoch's log is the spare buffer, emptied.
  const std::vector<std::uint64_t> next = set.take_log({});
  EXPECT_EQ(next, (std::vector<std::uint64_t>{1}));
  EXPECT_GE(next.capacity(), 64u);
}

}  // namespace
}  // namespace scd::core
