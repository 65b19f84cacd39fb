// One clock per timed stage: a scope is measured once, and that single
// duration feeds both its latency histogram and its trace span.
//
// StageTimer reads trace_now_ns() at entry and at exit. The duration goes to
// the histogram (in seconds) when one is given, and to a complete span of
// the same name in the calling thread's trace ring when tracing is on. With
// neither sink active it reads no clock at all. In a -DSCD_OBS_ENABLED=0
// build it is an empty object and every site compiles away, as the span
// macros do.
#pragma once

#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace scd::obs {

class StageTimer {
 public:
  /// `histogram` may be null (metrics off). `name` and `category` must have
  /// static storage duration: the trace ring stores the pointers. `trace`
  /// null means the global controller.
  StageTimer(Histogram* histogram, const char* name, const char* category,
             std::uint64_t arg = 0, TraceController* trace = nullptr) noexcept {
#if SCD_OBS_ENABLED
    if (trace == nullptr) trace = &TraceController::global();
    if (SCD_TRACE_ENABLED && trace->enabled()) {
      ring_ = &trace->ring_for_current_thread();
    }
    if (histogram == nullptr && ring_ == nullptr) return;
    histogram_ = histogram;
    name_ = name;
    category_ = category;
    arg_ = arg;
    start_ns_ = trace_now_ns();
#else
    (void)histogram, (void)name, (void)category, (void)arg, (void)trace;
#endif
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  ~StageTimer() { stop(); }

  /// Ends the measurement early. Later calls, the destructor's included,
  /// record nothing.
  void stop() noexcept {
#if SCD_OBS_ENABLED
    if (histogram_ == nullptr && ring_ == nullptr) return;
    const std::uint64_t dur_ns = trace_now_ns() - start_ns_;
    if (histogram_ != nullptr) {
      histogram_->observe(static_cast<double>(dur_ns) * 1e-9);
    }
    if (ring_ != nullptr) {
      ring_->emit(name_, category_, start_ns_, dur_ns, arg_, 0);
    }
    histogram_ = nullptr;
    ring_ = nullptr;
#endif
  }

 private:
#if SCD_OBS_ENABLED
  Histogram* histogram_ = nullptr;
  TraceRing* ring_ = nullptr;  // null = tracing was off at entry
  const char* name_ = nullptr;
  const char* category_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t arg_ = 0;
#endif
};

}  // namespace scd::obs
