// write_file_atomic under concurrent writers of one path: each writer uses
// its own temp sibling, so a reader only ever sees one writer's complete
// payload, and no temp file is left behind.
#include "common/atomic_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "support/temp_path.h"

namespace scd::common {
namespace {

TEST(AtomicFile, TempSiblingIsUniquePerCall) {
  const std::filesystem::path path = "/some/dir/file.cfg";
  const std::filesystem::path a = temp_sibling(path);
  const std::filesystem::path b = temp_sibling(path);
  EXPECT_NE(a, b);
  for (const auto& temp : {a, b}) {
    EXPECT_EQ(temp.parent_path(), path.parent_path());
    EXPECT_EQ(temp.extension(), ".tmp");
    EXPECT_EQ(temp.string().rfind(path.string() + ".", 0), 0u) << temp;
  }
}

TEST(AtomicFile, ConcurrentWritersNeverTearTheFile) {
  const std::filesystem::path dir = test_support::unique_temp_path("dir");
  std::filesystem::create_directories(dir);
  const std::filesystem::path path = dir / "shared.bin";
  constexpr std::size_t kBytes = 64 * 1024;
  constexpr int kWriters = 3;
  constexpr int kRounds = 10;
  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::thread reader([&] {
    while (!done.load()) {
      std::ifstream in(path, std::ios::binary);
      if (!in) continue;
      const std::string body((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
      const bool whole =
          body.size() == kBytes &&
          std::all_of(body.begin(), body.end(),
                      [&body](char c) { return c == body.front(); });
      if (!whole) torn.fetch_add(1);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&path, w] {
      const std::string payload(kBytes, static_cast<char>('a' + w));
      for (int round = 0; round < kRounds; ++round) {
        std::string error;
        EXPECT_TRUE(write_file_atomic(path, payload, error)) << error;
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true);
  reader.join();
  EXPECT_EQ(torn.load(), 0);
  std::vector<std::filesystem::path> left;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    left.push_back(entry.path());
  }
  EXPECT_EQ(left, std::vector<std::filesystem::path>{path});
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace scd::common
