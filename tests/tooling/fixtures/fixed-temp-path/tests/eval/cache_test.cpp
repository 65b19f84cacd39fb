// Fixture: one fixed-temp-path violation — a literal file name joined to
// the temp directory. The join through a variable name and the literal in
// this comment, TempDir() / "corpus.scdt", are not findings.
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace scd {

std::filesystem::path corpus_path() {
  return std::filesystem::path(::testing::TempDir()) /
         "corpus.scdt";
}

std::filesystem::path named_path(const std::string& name) {
  return std::filesystem::path(::testing::TempDir()) / name;
}

}  // namespace scd
