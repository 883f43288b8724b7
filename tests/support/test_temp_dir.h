#ifndef ROCKHOPPER_TESTS_SUPPORT_TEST_TEMP_DIR_H_
#define ROCKHOPPER_TESTS_SUPPORT_TEST_TEMP_DIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace rockhopper::test_support {

/// A fresh directory under the system temp directory that belongs to the
/// running test alone: it is named after the test and the process id, so
/// the test processes `ctest -j` runs side by side never share a file.
/// Removed, with its contents, on destruction.
class TestTempDir {
 public:
  TestTempDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "rockhopper-";
    if (info != nullptr) {
      name.append(info->test_suite_name()).append(".").append(info->name());
    } else {
      name.append("test");
    }
    name.append("-").append(std::to_string(::getpid()));
    std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
    path_ = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TestTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TestTempDir(const TestTempDir&) = delete;
  TestTempDir& operator=(const TestTempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }
  /// Path of `name` inside the directory.
  std::string File(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace rockhopper::test_support

#endif  // ROCKHOPPER_TESTS_SUPPORT_TEST_TEMP_DIR_H_
