// Process and host probes read from outside the pipeline: clocks, resource
// usage, /proc and sysfs.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds of the calling thread (CLOCK_THREAD_CPUTIME_ID).
[[nodiscard]] double thread_cpu_s();

/// User + system CPU seconds of the whole process (getrusage).
[[nodiscard]] double process_cpu_s();

/// Minor page faults of the calling thread (getrusage RUSAGE_THREAD).
[[nodiscard]] std::uint64_t thread_minor_faults();

[[nodiscard]] pid_t current_tid();

/// Task ids of every thread of this process.
[[nodiscard]] std::vector<pid_t> process_tids();

/// On-CPU nanoseconds of one thread of this process, from
/// /proc/self/task/<tid>/schedstat; 0 when the thread is gone.
[[nodiscard]] std::uint64_t task_cpu_ns(pid_t tid);

/// VmRSS / VmHWM of this process in bytes.
[[nodiscard]] std::uint64_t rss_bytes();
[[nodiscard]] std::uint64_t hwm_bytes();

/// Returns free heap pages to the kernel and restarts the VmHWM peak at the
/// current RSS, so each pass's peak is its own. False when the kernel
/// refuses the reset.
bool reset_peak_rss();

/// One JSON object with nproc, the SIMD ISA in effect, L2/LLC sizes from
/// sysfs and the build type.
[[nodiscard]] std::string host_facts_json(std::size_t workers);

/// Value at quantile q in [0, 1] of `values` (linear interpolation between
/// order statistics); 0 for an empty vector.
[[nodiscard]] double quantile(std::vector<double> values, double q);

}  // namespace perfbench
