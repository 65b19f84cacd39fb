// Durable POSIX file primitives shared by the checkpoint writer and the
// observability flight recorder.
//
// The atomic-write recipe is the one docs/CHECKPOINT.md commits to: write the
// payload to a sibling temp file, fsync the file, rename over the final path,
// then fsync the containing directory so the rename itself survives power
// loss. After a crash the final path holds either the previous complete file
// or the new complete file — never a torn mix.
//
// Errors are reported as (bool, message) rather than thrown: the two callers
// wrap failures in their own typed exceptions (checkpoint::CheckpointError)
// or log-and-count (flight recorder), and this layer must not impose either
// policy on the other.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <string_view>

namespace scd::common {

/// Writes `size` bytes at `data` to `path` (create or truncate) and fsyncs
/// the file contents. On failure fills `error` ("<op> <path>: <strerror>")
/// and returns false; the file may then hold any prefix of the data.
[[nodiscard]] bool write_file_durable(const std::filesystem::path& path,
                                      const void* data, std::size_t size,
                                      std::string& error);

/// Atomically replaces `to` with `from`, then fsyncs the parent directory so
/// the rename survives power loss. On failure fills `error` and returns
/// false.
[[nodiscard]] bool rename_durable(const std::filesystem::path& from,
                                  const std::filesystem::path& to,
                                  std::string& error);

/// Best-effort unlink; never throws (cleanup paths must tolerate ENOENT).
void remove_file_quiet(const std::filesystem::path& path) noexcept;

/// A temp sibling of `path` that no other writer of `path` uses at the same
/// time, thread or process: "<path>.<pid>-<n>.tmp". Concurrent writers of
/// one path (parallel test processes filling a shared cache) then never
/// write into each other's temp file, and the last rename wins whole.
[[nodiscard]] std::filesystem::path temp_sibling(
    const std::filesystem::path& path);

/// The full atomic-write recipe: temp sibling (temp_sibling) + durable
/// write + durable rename. On failure the temp file is removed, `error` is
/// filled and false is returned; `path` then still holds its previous
/// contents (or remains absent).
[[nodiscard]] bool write_file_atomic(const std::filesystem::path& path,
                                     std::string_view data,
                                     std::string& error);

}  // namespace scd::common
