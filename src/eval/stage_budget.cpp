#include "eval/stage_budget.h"

#include <cstdio>
#include <string>

namespace scd::eval {

namespace {

std::string row(const char* stage, double total_s, double unit_s,
                const char* unit_name, double share) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-14s %10.4f s  %10.3f us/%-8s %5.1f%%\n",
                stage, total_s, unit_s * 1e6, unit_name, share * 100.0);
  return buf;
}

}  // namespace

std::string format_stage_budget(const core::PipelineStats& stats) {
  // update_seconds covers only the timed records; scale up to the whole
  // stream for the budget view.
  const double update_est =
      stats.update_samples == 0
          ? 0.0
          : stats.update_seconds *
                (static_cast<double>(stats.records) /
                 static_cast<double>(stats.update_samples));
  const double accounted =
      update_est + stats.close_seconds + stats.refit_seconds;
  if (accounted <= 0.0) {
    return "stage budget: no timing data (pipeline ran with metrics "
           "disabled or saw no records)\n";
  }
  const double per_interval =
      stats.intervals_closed == 0 ? 0.0
                                  : 1.0 / static_cast<double>(
                                              stats.intervals_closed);
  std::string out = "stage budget (accounted pipeline time):\n";
  out += row("sketch_update*", update_est,
             stats.records == 0 ? 0.0
                                : update_est / static_cast<double>(
                                                   stats.records),
             "record", update_est / accounted);
  out += row("interval_close", stats.close_seconds,
             stats.close_seconds * per_interval, "interval",
             stats.close_seconds / accounted);
  out += row("  forecast", stats.forecast_seconds,
             stats.forecast_seconds * per_interval, "interval",
             stats.forecast_seconds / accounted);
  out += row("  estimate_f2", stats.estimate_f2_seconds,
             stats.estimate_f2_seconds * per_interval, "interval",
             stats.estimate_f2_seconds / accounted);
  out += row("  key_replay", stats.key_replay_seconds,
             stats.keys_replayed == 0
                 ? 0.0
                 : stats.key_replay_seconds /
                       static_cast<double>(stats.keys_replayed),
             "key", stats.key_replay_seconds / accounted);
  out += row("refit", stats.refit_seconds,
             stats.refits == 0
                 ? 0.0
                 : stats.refit_seconds / static_cast<double>(stats.refits),
             "refit", stats.refit_seconds / accounted);
  char tail[160];
  std::snprintf(tail, sizeof(tail),
                "  * extrapolated from %llu timed updates of %llu records\n",
                static_cast<unsigned long long>(stats.update_samples),
                static_cast<unsigned long long>(stats.records));
  out += tail;
  return out;
}

}  // namespace scd::eval
