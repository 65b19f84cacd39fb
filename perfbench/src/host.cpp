#include "host.h"

#include <malloc.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "simd/kernels.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

/// A "Name:   1234 kB" field of /proc/self/status, in bytes.
std::uint64_t status_kb_field(const char* name) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(name) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtoull(line.c_str() + prefix.size(), nullptr, 10) * 1024;
    }
  }
  return 0;
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

}  // namespace

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return timeval_s(ru.ru_utime) + timeval_s(ru.ru_stime);
}

std::uint64_t thread_minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

pid_t current_tid() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

std::vector<pid_t> process_tids() {
  std::vector<pid_t> tids;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    tids.push_back(static_cast<pid_t>(
        std::strtol(entry.path().filename().c_str(), nullptr, 10)));
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::uint64_t task_cpu_ns(pid_t tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/schedstat");
  std::uint64_t ns = 0;
  in >> ns;
  return ns;
}

std::uint64_t rss_bytes() { return status_kb_field("VmRSS"); }
std::uint64_t hwm_bytes() { return status_kb_field("VmHWM"); }

bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

std::string host_facts_json(std::size_t workers) {
  // Cache sizes as the kernel reports them ("2048K"); the LLC is the
  // highest-level unified cache.
  std::string l2 = "unknown";
  std::string llc = "unknown";
  int llc_level = 0;
  const std::string base = "/sys/devices/system/cpu/cpu0/cache";
  for (int i = 0; i < 8; ++i) {
    const std::string dir = base + "/index" + std::to_string(i);
    if (!std::filesystem::exists(dir)) break;
    const std::string type = read_first_line(dir + "/type");
    const int level = std::atoi(read_first_line(dir + "/level").c_str());
    const std::string size = read_first_line(dir + "/size");
    if (type == "Data" || type == "Instruction") continue;
    if (level == 2) l2 = size;
    if (level >= llc_level) {
      llc_level = level;
      llc = size;
    }
  }
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"workers\": " << workers << ", \"isa\": \""
      << scd::simd::isa_name(scd::simd::active_isa()) << "\", \"l2\": \""
      << l2 << "\", \"llc\": \"" << llc << "\", \"build_type\": \""
      << PERFBENCH_BUILD_TYPE << "\"}";
  return out.str();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace perfbench
