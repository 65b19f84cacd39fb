// IntervalCutter — the one interval-binning policy of the sketch module
// (§2.2, §3.1): cut a timestamped record stream into consecutive intervals,
// one observed sketch per interval.
//
//   * The first record anchors interval 0 at its own timestamp (or the
//     caller anchors the grid explicitly with start_at).
//   * A record whose timestamp regresses below the stream's high-water mark
//     is late: it is counted and clamped into the open interval, never
//     rejected and never mis-binned into a past one.
//   * A record past the open interval's end closes intervals until one
//     contains it, so a quiet gap closes empty intervals.
//
// The cutter only decides WHEN an interval closes; what closing means (emit
// a report, stamp a shard epoch) is the caller's close callback, which must
// advance() the cutter. Both the serial engine (src/core/pipeline.cpp) and
// the sharded front-end (src/ingest/parallel_pipeline.cpp) bin through this
// class, so their interval grids agree by construction.
#pragma once

#include <algorithm>
#include <cstdint>

namespace scd::core {

class IntervalCutter {
 public:
  explicit IntervalCutter(double length_s) noexcept : length_s_(length_s) {}

  /// Anchors interval 0 at `time_s`.
  void start_at(double time_s) noexcept {
    started_ = true;
    start_s_ = time_s;
    high_water_s_ = time_s;
  }

  /// Bins one record time: calls `close()` once per interval boundary the
  /// record crosses. Returns true when the record was late (counted in
  /// out_of_order() and binned into the open interval).
  template <typename Close>
  bool place(double time_s, Close&& close) {
    if (!started_) start_at(time_s);
    bool late = false;
    if (time_s < high_water_s_) {
      late = true;
      ++out_of_order_;
      if (time_s < start_s_) time_s = start_s_;
    } else {
      high_water_s_ = time_s;
    }
    while (time_s >= start_s_ + length_s_) close();
    return late;
  }

  /// Moves past the interval just closed; the next one lasts
  /// `next_length_s`.
  void advance(double next_length_s) noexcept {
    start_s_ += length_s_;
    length_s_ = next_length_s;
  }

  /// Positions the open interval at [start_s, start_s + length_s), cut by
  /// someone else (a pre-aggregated batch). The high-water mark moves to the
  /// interval's end.
  void jump_to(double start_s, double length_s) noexcept {
    started_ = true;
    start_s_ = start_s;
    length_s_ = length_s;
    high_water_s_ = std::max(high_water_s_, start_s + length_s);
  }

  /// Reinstates a saved position (checkpoint restore).
  void restore(bool started, double start_s, double length_s,
               double high_water_s, std::uint64_t out_of_order) noexcept {
    started_ = started;
    start_s_ = start_s;
    length_s_ = length_s;
    high_water_s_ = high_water_s;
    out_of_order_ = out_of_order;
  }

  [[nodiscard]] bool started() const noexcept { return started_; }
  [[nodiscard]] double start_s() const noexcept { return start_s_; }
  [[nodiscard]] double length_s() const noexcept { return length_s_; }
  [[nodiscard]] double high_water_s() const noexcept { return high_water_s_; }
  [[nodiscard]] std::uint64_t out_of_order() const noexcept {
    return out_of_order_;
  }

 private:
  bool started_ = false;
  double start_s_ = 0.0;
  double length_s_;
  double high_water_s_ = 0.0;
  std::uint64_t out_of_order_ = 0;
};

}  // namespace scd::core
