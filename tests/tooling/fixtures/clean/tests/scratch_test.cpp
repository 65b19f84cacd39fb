// Fixture: would trip fixed-temp-path, but the finding carries a waiver;
// the unique-path helper call is not a finding at all.
#include <filesystem>

#include <gtest/gtest.h>

#include "support/temp_path.h"

namespace scd {

std::filesystem::path scratch_dir() {
  return test_support::unique_temp_path("scratch");
}

std::filesystem::path shared_dir() {
  // A directory every test process is meant to share, read-only.
  return std::filesystem::temp_directory_path() /  // scd-lint: allow(fixed-temp-path)
         "scd_shared_inputs";
}

}  // namespace scd
