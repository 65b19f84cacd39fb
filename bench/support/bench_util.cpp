#include "support/bench_util.h"

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "common/atomic_file.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/strutil.h"
#include "eval/sketch_path.h"
#include "eval/trace_cache.h"
#include "eval/tsv_export.h"
#include "gridsearch/grid_search.h"
#include "traffic/key_extract.h"
#include "traffic/router_profiles.h"

namespace scd::bench {

namespace {
int g_failed_checks = 0;
std::string g_artifact_slug;

std::string slugify(const std::string& text) {
  std::string slug;
  for (const char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug.push_back(static_cast<char>(std::tolower(c)));
    } else if (!slug.empty() && slug.back() != '_') {
      slug.push_back('_');
    }
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug;
}
}  // namespace

void print_header(const std::string& artifact, const std::string& title,
                  const std::string& paper_claim) {
  g_artifact_slug = slugify(artifact);
  std::printf("\n==== %s: %s ====\n", artifact.c_str(), title.c_str());
  std::printf("# paper shape: %s\n", paper_claim.c_str());
}

void print_series(const std::string& name,
                  const std::vector<std::pair<double, double>>& points) {
  for (const auto& [x, y] : points) {
    std::printf("%s\t%g\t%g\n", name.c_str(), x, y);
  }
  // Optional plot-ready export: one TSV per series under $SCD_OUT_DIR.
  const std::string& dir = eval::tsv_export_dir();
  if (dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  try {
    eval::TsvWriter writer(
        dir + "/" + g_artifact_slug + "_" + slugify(name) + ".tsv",
        {"x", "y"});
    for (const auto& [x, y] : points) writer.row(std::vector<double>{x, y});
  } catch (const std::exception& e) {
    SCD_WARN() << "tsv export failed: " << e.what();
  }
}

bool check(bool ok, const std::string& claim, const std::string& details) {
  if (!ok) ++g_failed_checks;
  std::printf("CHECK %s: %s%s%s\n", claim.c_str(), ok ? "PASS" : "FAIL",
              details.empty() ? "" : " — ", details.c_str());
  return ok;
}

int finish() {
  if (g_failed_checks > 0) {
    std::printf("\n%d check(s) FAILED\n", g_failed_checks);
    return 1;
  }
  std::printf("\nall checks passed\n");
  return 0;
}

const eval::IntervalizedStream& stream_for(const std::string& router,
                                           double interval_s) {
  static std::map<std::pair<std::string, double>,
                  std::unique_ptr<eval::IntervalizedStream>>
      cache;
  const auto key = std::make_pair(router, interval_s);
  auto it = cache.find(key);
  if (it == cache.end()) {
    const auto& trace = eval::cached_trace(traffic::router_by_name(router));
    it = cache
             .emplace(key, std::make_unique<eval::IntervalizedStream>(
                               trace, interval_s, traffic::KeyKind::kDstIp,
                               traffic::UpdateKind::kBytes))
             .first;
  }
  return *it->second;
}

std::size_t warmup_intervals(double interval_s) {
  return static_cast<std::size_t>(3600.0 / interval_s);
}

double estimated_total_energy_objective(const eval::IntervalizedStream& stream,
                                        const forecast::ModelConfig& config,
                                        std::size_t warmup) {
  eval::SketchPathOptions options;
  options.h = 1;          // paper §4.2: grid search runs at H=1, K=8192
  options.k = 8192;
  options.collect_errors = false;
  const auto result = eval::compute_sketch_errors(stream, config, options);
  return result.total_f2(warmup);
}

namespace {

std::string params_path(const std::string& router, double interval_s,
                        forecast::ModelKind kind) {
  return eval::trace_cache_dir() +
         common::str_format("/params_%s_%d_%s.cfg", router.c_str(),
                            static_cast<int>(interval_s),
                            forecast::model_kind_name(kind));
}

bool load_config(const std::string& path, forecast::ModelKind kind,
                 forecast::ModelConfig& out) {
  std::ifstream in(path);
  if (!in) return false;
  int kind_int = 0;
  forecast::ModelConfig c;
  in >> kind_int >> c.window >> c.alpha >> c.beta >> c.gamma >> c.period >>
      c.arima.p >> c.arima.d >> c.arima.q >> c.arima.ar[0] >> c.arima.ar[1] >>
      c.arima.ma[0] >> c.arima.ma[1];
  if (!in || kind_int != static_cast<int>(kind)) return false;
  c.kind = kind;
  if (!c.valid()) return false;
  out = c;
  return true;
}

/// Written atomically: figure benches running in parallel share the cache,
/// and a reader must never parse a half-written number.
void save_config(const std::string& path, const forecast::ModelConfig& c) {
  std::ostringstream out;
  out << static_cast<int>(c.kind) << ' ' << c.window << ' ' << c.alpha << ' '
      << c.beta << ' ' << c.gamma << ' ' << c.period << ' ' << c.arima.p << ' '
      << c.arima.d << ' ' << c.arima.q << ' ' << c.arima.ar[0] << ' '
      << c.arima.ar[1] << ' ' << c.arima.ma[0] << ' ' << c.arima.ma[1] << '\n';
  std::string error;
  if (!common::write_file_atomic(path, out.str(), error)) {
    SCD_WARN() << "params cache: " << error;
  }
}

}  // namespace

forecast::ModelConfig cached_grid_model(const std::string& router,
                                        double interval_s,
                                        forecast::ModelKind kind) {
  const std::string path = params_path(router, interval_s, kind);
  forecast::ModelConfig config;
  if (load_config(path, kind, config)) return config;

  const auto& stream = stream_for(router, interval_s);
  const std::size_t warmup = warmup_intervals(interval_s);
  gridsearch::GridSearchOptions options;
  options.max_window = interval_s <= 60.0 ? 12 : 10;  // paper §4.2
  const auto result = gridsearch::grid_search(
      kind,
      [&stream, warmup](const forecast::ModelConfig& candidate) {
        return estimated_total_energy_objective(stream, candidate, warmup);
      },
      options);
  std::error_code ec;
  std::filesystem::create_directories(eval::trace_cache_dir(), ec);
  save_config(path, result.best);
  return result.best;
}

std::vector<forecast::ModelConfig> random_model_configs(
    forecast::ModelKind kind, std::size_t count, std::uint64_t seed,
    std::size_t max_window) {
  using forecast::ModelKind;
  common::Rng rng(seed ^ (static_cast<std::uint64_t>(kind) << 32));
  std::vector<forecast::ModelConfig> configs;
  configs.reserve(count);
  while (configs.size() < count) {
    forecast::ModelConfig c;
    c.kind = kind;
    switch (kind) {
      case ModelKind::kMovingAverage:
      case ModelKind::kSShapedMA:
        c.window = static_cast<std::size_t>(
            rng.next_in(1, static_cast<std::int64_t>(max_window)));
        break;
      case ModelKind::kEwma:
        c.alpha = rng.uniform(0.05, 1.0);
        break;
      case ModelKind::kHoltWinters:
        c.alpha = rng.uniform(0.05, 1.0);
        c.beta = rng.uniform(0.0, 1.0);
        break;
      case ModelKind::kArima0:
      case ModelKind::kArima1: {
        static constexpr std::array<std::pair<int, int>, 4> kOrders{
            {{1, 0}, {0, 1}, {1, 1}, {2, 1}}};
        const auto [p, q] = kOrders[rng.next_below(kOrders.size())];
        c.arima.p = p;
        c.arima.q = q;
        c.arima.d = kind == ModelKind::kArima1 ? 1 : 0;
        for (std::size_t j = 0; j < static_cast<std::size_t>(p); ++j) {
          c.arima.ar[j] = rng.uniform(-2.0, 2.0);
        }
        for (std::size_t i = 0; i < static_cast<std::size_t>(q); ++i) {
          c.arima.ma[i] = rng.uniform(-2.0, 2.0);
        }
        break;
      }
      case ModelKind::kSeasonalHoltWinters:
        c.alpha = rng.uniform(0.05, 1.0);
        c.beta = rng.uniform(0.0, 1.0);
        c.gamma = rng.uniform(0.0, 1.0);
        break;
    }
    if (c.valid()) configs.push_back(c);
  }
  return configs;
}

}  // namespace scd::bench
