// estimate_batch must be BIT-IDENTICAL to per-key estimate(): it reorders
// the work (hash pass, then one gather sweep per row, then the median per
// key) but evaluates each per-row estimate with the same expression and
// takes the same median over the rows in the same order. Swept over H
// (median networks, the nth_element fallback and the 4-row tabulation
// group boundary), K (smallest, mid, largest) and batch sizes that cross
// the internal block, for both hash families.
#include "sketch/kary_sketch.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/random.h"

namespace scd::sketch {
namespace {

template <typename Sketch>
void expect_batch_matches_estimate(Sketch& sketch, common::Rng& rng,
                                   std::uint64_t key_space) {
  // Signed updates so estimates land on both sides of zero.
  for (std::size_t i = 0; i < 3000; ++i) {
    sketch.update(rng.next_below(key_space), rng.uniform(-500.0, 1500.0));
  }
  for (const std::size_t n : {0UL, 1UL, 17UL, 4097UL}) {
    std::vector<std::uint64_t> keys(n);
    for (std::uint64_t& key : keys) key = rng.next_below(key_space);
    std::vector<double> out(n, -1.0);
    sketch.estimate_batch(keys, out);
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(out[j]),
                std::bit_cast<std::uint64_t>(sketch.estimate(keys[j])))
          << "h=" << sketch.depth() << " k=" << sketch.width() << " n=" << n
          << " key " << j;
    }
  }
}

TEST(KaryEstimateBatch, MatchesEstimateTabulation) {
  common::Rng rng(17);
  for (const std::size_t h : {1UL, 3UL, 4UL, 5UL, 25UL}) {
    for (const std::size_t k : {2UL, 4096UL, 65536UL}) {
      KarySketch sketch(make_tabulation_family(300 + h, h), k);
      expect_batch_matches_estimate(sketch, rng, 1ULL << 32);
    }
  }
}

TEST(KaryEstimateBatch, MatchesEstimateCarterWegman) {
  common::Rng rng(18);
  for (const std::size_t h : {1UL, 3UL, 4UL, 5UL, 25UL}) {
    for (const std::size_t k : {2UL, 4096UL, 65536UL}) {
      KarySketch64 sketch(make_cw_family(400 + h, h), k);
      expect_batch_matches_estimate(sketch, rng, ~0ULL);
    }
  }
}

TEST(KaryEstimateBatch, RepeatedKeysAndEmptySketch) {
  const auto family = make_tabulation_family(9, 5);
  KarySketch sketch(family, 1024);
  const std::vector<std::uint64_t> keys{7, 7, 0, 0xffffffffULL, 7};
  std::vector<double> out(keys.size());
  sketch.estimate_batch(keys, out);  // all-zero table
  for (std::size_t j = 0; j < keys.size(); ++j) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[j]),
              std::bit_cast<std::uint64_t>(sketch.estimate(keys[j])));
  }
  sketch.update(7, 100.0);
  sketch.estimate_batch(keys, out);
  EXPECT_EQ(out[0], out[1]);
  EXPECT_EQ(out[0], out[4]);
  EXPECT_EQ(out[0], sketch.estimate(7));
}

TEST(KaryEstimateBatch, RejectsMismatchedOutput) {
  KarySketch sketch(make_tabulation_family(1, 3), 64);
  const std::vector<std::uint64_t> keys{1, 2, 3};
  std::vector<double> out(2);
  EXPECT_THROW(sketch.estimate_batch(keys, out), std::invalid_argument);
}

}  // namespace
}  // namespace scd::sketch
