#include "eval/trace_cache.h"

#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>

#include "common/atomic_file.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "traffic/flow_record.h"
#include "traffic/synthetic.h"
#include "traffic/trace_io.h"

namespace scd::eval {

namespace {

common::Mutex g_cache_mutex;
// Keyed by profile name. std::map node stability means the returned
// references stay valid (and, once inserted, immutable) after the lock is
// released — callers only ever read a completed entry.
std::map<std::string, std::vector<traffic::FlowRecord>> g_memory_cache
    SCD_GUARDED_BY(g_cache_mutex);

/// Cache miss path: load from disk or regenerate, then insert. The lock is
/// held across generation — concurrent first requests for the same profile
/// must not both generate and race the insert.
const std::vector<traffic::FlowRecord>& load_or_generate_locked(
    const traffic::RouterProfile& profile) SCD_REQUIRES(g_cache_mutex) {
  const std::filesystem::path dir = trace_cache_dir();
  const std::filesystem::path path = dir / (profile.name + ".scdt");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);

  if (std::filesystem::exists(path)) {
    try {
      auto records = traffic::read_trace(path.string());
      SCD_INFO() << "trace cache: loaded " << profile.name << " ("
                 << records.size() << " records) from " << path.string();
      return g_memory_cache.emplace(profile.name, std::move(records))
          .first->second;
    } catch (const std::exception& e) {
      SCD_WARN() << "trace cache: rereading " << path.string()
                 << " failed (" << e.what() << "); regenerating";
    }
  }

  traffic::SyntheticTraceGenerator generator(profile.config);
  auto records = generator.generate();
  SCD_INFO() << "trace cache: generated " << profile.name << " ("
             << records.size() << " records)";
  // Written to a private temp sibling and renamed into place: another
  // process filling the same cache must never read a partial trace.
  const std::filesystem::path temp = common::temp_sibling(path);
  try {
    traffic::write_trace(temp.string(), records);
    std::string error;
    if (!common::rename_durable(temp, path, error)) {
      throw std::runtime_error(error);
    }
  } catch (const std::exception& e) {
    common::remove_file_quiet(temp);
    SCD_WARN() << "trace cache: persisting " << path.string() << " failed ("
               << e.what() << "); continuing in-memory";
  }
  return g_memory_cache.emplace(profile.name, std::move(records))
      .first->second;
}

}  // namespace

std::string trace_cache_dir() {
  // getenv without concurrent setenv anywhere in the process is safe.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* dir = std::getenv("SCD_TRACE_DIR")) return dir;
  return "traces";
}

const std::vector<traffic::FlowRecord>& cached_trace(
    const traffic::RouterProfile& profile) {
  const common::MutexLock lock(g_cache_mutex);
  if (const auto it = g_memory_cache.find(profile.name);
      it != g_memory_cache.end()) {
    return it->second;
  }
  return load_or_generate_locked(profile);
}

}  // namespace scd::eval
