// Per-test, per-process scratch paths for the test suite.
//
// ctest -j runs every gtest case in its own process, so two cases that build
// the same fixed name under the temp directory race on one file: one
// truncates or rewrites it while another still has it open or mapped.
// unique_temp_path() folds the running test's full name and the process id
// into the name, so no two live processes share a path. scd_lint's
// fixed-temp-path rule rejects fixed names joined to the temp directory
// anywhere under tests/.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace scd::test_support {

/// Returns TempDir()/<suite>.<test>.<pid>.<name>. Nothing is created or
/// removed; `name` tells apart several paths within one test.
inline std::filesystem::path unique_temp_path(const std::string& name) {
  std::string stem = "no_test";
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    stem = std::string(info->test_suite_name()) + "." + info->name();
  }
  for (char& c : stem) {
    if (c == '/') c = '_';  // parameterized tests have '/' in their names
  }
  return std::filesystem::path(::testing::TempDir()) /
         (stem + "." + std::to_string(::getpid()) + "." + name);
}

}  // namespace scd::test_support
