#include "eval/tsv_export.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "support/temp_path.h"

namespace scd::eval {
namespace {

std::string temp_path(const std::string& name) {
  const auto dir = test_support::unique_temp_path("tsv");
  std::filesystem::create_directories(dir);
  return (dir / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(TsvWriter, WritesHeaderAndRows) {
  const auto path = temp_path("basic.tsv");
  {
    TsvWriter writer(path, {"x", "y"});
    writer.row(std::vector<double>{1.0, 2.5});
    writer.row(std::vector<double>{3.0, -4.0});
    EXPECT_EQ(writer.rows_written(), 2u);
  }
  EXPECT_EQ(slurp(path), "#x\ty\n1\t2.5\n3\t-4\n");
  std::remove(path.c_str());
}

TEST(TsvWriter, StringRows) {
  const auto path = temp_path("strings.tsv");
  {
    TsvWriter writer(path, {"name", "value"});
    writer.row(std::vector<std::string>{"alpha", "0.5"});
  }
  EXPECT_EQ(slurp(path), "#name\tvalue\nalpha\t0.5\n");
  std::remove(path.c_str());
}

TEST(TsvWriter, UnwritablePathThrows) {
  EXPECT_THROW(TsvWriter("/no/such/dir/out.tsv", {"x"}), std::runtime_error);
}

TEST(TsvExportDir, ReflectsEnvironmentOncePerProcess) {
  // The value is latched at first call; we can only assert it is stable.
  const std::string& first = tsv_export_dir();
  EXPECT_EQ(&first, &tsv_export_dir());
}

}  // namespace
}  // namespace scd::eval
