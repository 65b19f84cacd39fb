#include "eval/stage_budget.h"

#include <cstdint>
#include <cstdio>
#include <string>

namespace scd::eval {

namespace {

std::string row(const std::string& label, double total_s, std::uint64_t units,
                const char* unit_name, double wall_s) {
  const double unit_s =
      units == 0 ? 0.0 : total_s / static_cast<double>(units);
  const double share = wall_s > 0.0 ? total_s / wall_s : 0.0;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-16s %10.4f s  %10.3f us/%-8s %5.1f%%\n",
                label.c_str(), total_s, unit_s * 1e6, unit_name,
                share * 100.0);
  return buf;
}

}  // namespace

std::string format_stage_budget(const obs::PipelineInstruments& instruments,
                                const core::PipelineStats& stats,
                                double wall_s) {
  using obs::Stage;
  const auto total = [&instruments](Stage s) {
    return instruments.stage(s).sum();
  };
  const double accounted = total(Stage::kSketchUpdate) +
                           total(Stage::kIntervalClose) + total(Stage::kRefit);
  if (accounted <= 0.0) {
    return "stage budget: no timing data (pipeline ran with metrics "
           "disabled or saw no records)\n";
  }
  struct Row {
    Stage stage;
    bool nested;  // runs inside interval_close
    std::uint64_t units;
    const char* unit_name;
  };
  const Row rows[] = {
      {Stage::kSketchUpdate, false, stats.records, "record"},
      {Stage::kIntervalClose, false, stats.intervals_closed, "interval"},
      {Stage::kForecast, true, stats.intervals_closed, "interval"},
      {Stage::kEstimateF2, true, stats.intervals_closed, "interval"},
      {Stage::kKeyReplay, true, stats.keys_replayed, "key"},
      {Stage::kRefit, false, stats.refits, "refit"},
  };
  char head[96];
  std::snprintf(head, sizeof(head), "stage budget (wall time %.4f s):\n",
                wall_s);
  std::string out = head;
  for (const Row& r : rows) {
    out += row(std::string(r.nested ? "  " : "") + obs::stage_name(r.stage),
               total(r.stage), r.units, r.unit_name, wall_s);
  }
  out += row("unaccounted", wall_s - accounted, stats.records, "record",
             wall_s);
  return out;
}

}  // namespace scd::eval
