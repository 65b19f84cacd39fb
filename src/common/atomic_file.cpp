#include "common/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>

namespace scd::common {

namespace {

[[nodiscard]] std::string op_error(const char* op,
                                   const std::filesystem::path& path) {
  // strerror races only garble this message, never the error decision.
  return std::string(op) + " " + path.string() + ": " +
         std::strerror(errno);  // NOLINT(concurrency-mt-unsafe)
}

}  // namespace

bool write_file_durable(const std::filesystem::path& path, const void* data,
                        std::size_t size, std::string& error) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    error = op_error("open", path);
    return false;
  }
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::size_t written = 0;
  while (written < size) {
    const ::ssize_t n = ::write(fd, bytes + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      error = op_error("write", path);
      ::close(fd);
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    error = op_error("fsync", path);
    ::close(fd);
    return false;
  }
  if (::close(fd) != 0) {
    error = op_error("close", path);
    return false;
  }
  return true;
}

bool rename_durable(const std::filesystem::path& from,
                    const std::filesystem::path& to, std::string& error) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    // strerror races only garble this message, never the error decision.
    error = "rename " + from.string() + " -> " + to.string() + ": " +
            std::strerror(errno);  // NOLINT(concurrency-mt-unsafe)
    return false;
  }
  // fsync the containing directory so the rename itself is durable.
  const std::filesystem::path dir = to.parent_path();
  const int fd =
      ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    error = op_error("open dir", dir);
    return false;
  }
  if (::fsync(fd) != 0) {
    error = op_error("fsync dir", dir);
    ::close(fd);
    return false;
  }
  ::close(fd);
  return true;
}

void remove_file_quiet(const std::filesystem::path& path) noexcept {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

std::filesystem::path temp_sibling(const std::filesystem::path& path) {
  static std::atomic<std::uint64_t> counter{0};
  // mo: a uniqueness ticket; nothing else is ordered by it.
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  return path.string() + "." + std::to_string(::getpid()) + "-" +
         std::to_string(n) + ".tmp";
}

bool write_file_atomic(const std::filesystem::path& path,
                       std::string_view data, std::string& error) {
  const std::filesystem::path temp = temp_sibling(path);
  if (!write_file_durable(temp, data.data(), data.size(), error)) {
    remove_file_quiet(temp);
    return false;
  }
  if (!rename_durable(temp, path, error)) {
    remove_file_quiet(temp);
    return false;
  }
  return true;
}

}  // namespace scd::common
