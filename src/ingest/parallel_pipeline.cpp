#include "ingest/parallel_pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "common/random.h"
#include "core/interval_cutter.h"
#include "core/pipeline.h"
#include "hash/cw_hash.h"
#include "hash/tabulation_hash.h"
#include "ingest/ingest_metrics.h"
#include "ingest/shard_set.h"
#include "obs/metrics.h"
#include "sketch/kary_sketch.h"
#include "sketch/mv_sketch.h"
#include "traffic/flow_record.h"
#include "traffic/key_extract.h"

namespace scd::ingest {

void ParallelConfig::validate(const core::PipelineConfig& pipeline) const {
  if (workers < 1 || workers > 256) {
    throw std::invalid_argument("ParallelConfig: workers must be in [1, 256]");
  }
  if (batch_size < 1) {
    throw std::invalid_argument("ParallelConfig: batch_size must be >= 1");
  }
  if (queue_capacity < batch_size) {
    throw std::invalid_argument(
        "ParallelConfig: queue_capacity must hold at least one batch");
  }
  if (max_pending_intervals < 1 || max_pending_intervals > 64) {
    throw std::invalid_argument(
        "ParallelConfig: max_pending_intervals must be in [1, 64]");
  }
  if (pipeline.randomize_intervals) {
    throw std::invalid_argument(
        "ParallelConfig: randomize_intervals is incompatible with sharded "
        "ingestion (interval lengths are drawn inside the serial engine)");
  }
  if (pipeline.key_sample_rate < 1.0) {
    throw std::invalid_argument(
        "ParallelConfig: key_sample_rate < 1 would make shard key buffers "
        "depend on record arrival order; sample keys in the caller instead");
  }
}

class ParallelPipeline::Impl {
 public:
  Impl(core::PipelineConfig config, ParallelConfig parallel)
      : config_(std::move(config)),
        parallel_(parallel),
        serial_(config_),  // validates config_ and owns forecast/detect
        cutter_(config_.interval_s) {
    parallel_.validate(config_);
#if SCD_OBS_ENABLED
    if (config_.metrics) {
      instruments_ = std::make_unique<IngestInstruments>(IngestInstruments::
          create(obs::MetricsRegistry::global(), parallel_.workers));
    }
#endif
    const std::size_t queue_chunks = std::max<std::size_t>(
        1, parallel_.queue_capacity / parallel_.batch_size);
    // Shard-set dispatch mirrors the serial engine's (recovery mode, key
    // width) switch so the workers accumulate the same sketch type the
    // detection engine consumes.
    const bool key32 = traffic::key_fits_32bit(config_.key_kind);
    const auto make_shards = [&]<typename SketchT>() {
      shards_ = std::make_unique<ShardSet<SketchT>>(
          config_.seed, config_.h, config_.k, parallel_.workers, queue_chunks,
          instruments_.get());
    };
    switch (config_.recovery) {
      case core::RecoveryMode::kReplay:
        if (key32) {
          make_shards.operator()<sketch::KarySketch>();
        } else {
          make_shards.operator()<sketch::KarySketch64>();
        }
        break;
      case core::RecoveryMode::kInvertible:
        if (key32) {
          make_shards.operator()<sketch::MvSketch>();
        } else {
          make_shards.operator()<sketch::MvSketch64>();
        }
        break;
    }
    pending_.resize(parallel_.workers);
    for (Chunk& chunk : pending_) chunk.reserve(parallel_.batch_size);
    // Arm the asynchronous epoch merge (docs/PERFORMANCE.md): the merger
    // thread delivers every closed interval, in order, to handle_merged.
    shards_->begin_async(
        [this](std::uint64_t, core::IntervalBatch&& batch) {
          handle_merged(std::move(batch));
        },
        parallel_.max_pending_intervals);
  }

  ~Impl() { shards_->stop(); }

  void add(std::uint64_t key, double update, double time_s) {
    if (!std::isfinite(update)) {
      throw std::invalid_argument(
          "ParallelPipeline: update must be finite");
    }
    // Same binning as the serial engine: late records are counted and
    // clamped into the open interval rather than rejected or mis-binned.
    cutter_.place(time_s, [this] { close_interval(); });
    Chunk& chunk = pending_[shard_of(key)];
    chunk.push_back({key, update});
    if (chunk.size() >= parallel_.batch_size) {
      flush_chunk(shard_of(key));
    }
    ++stats_.records;
    ++records_since_barrier_;
  }

  void start_at(double time_s) {
    if (cutter_.started()) {
      throw std::logic_error(
          "ParallelPipeline::start_at: the stream has already started (call "
          "before the first record, or restore a snapshot instead)");
    }
    if (!std::isfinite(time_s)) {
      throw std::invalid_argument(
          "ParallelPipeline::start_at: anchor time must be finite");
    }
    cutter_.start_at(time_s);
  }

  void flush() {
    if (!cutter_.started()) return;
    close_interval();
    // Wait for the merger to consume every closed epoch: after drain() the
    // serial stages have ingested all intervals and the merger is idle, so
    // touching serial_ from this thread is ordered (via the drain lock).
    shards_->drain();
    serial_.flush();
  }

  void drain() { shards_->drain(); }

  [[nodiscard]] ParallelStats parallel_stats() const noexcept {
    ParallelStats s = stats_;
    s.out_of_order_records = cutter_.out_of_order();
    s.backpressure_waits = shards_->backpressure_waits();
    s.shutdown_dropped_records = shards_->dropped_records();
    return s;
  }

  void set_interval_batch_callback(
      std::function<void(std::uint64_t, const core::IntervalBatch&)>
          callback) {
    on_interval_batch_ = std::move(callback);
  }

  [[nodiscard]] std::vector<std::uint8_t> save_state() const {
    // Inside an interval callback the merger owns the engine, which sits at
    // that interval's boundary; the producer-side fields below may already
    // belong to later epochs and are not the merger's to read.
    if (!shards_->on_merger_thread()) {
      if (records_since_barrier_ != 0) {
        throw std::logic_error(
            "ParallelPipeline::save_state: records accepted since the last "
            "interval close; snapshot only from the interval-close callback");
      }
      if (!shards_->idle()) {
        throw std::logic_error(
            "ParallelPipeline::save_state: closed intervals are still being "
            "merged; snapshot from the interval-close callback or after "
            "flush()");
      }
    }
    return serial_.save_state();
  }

  void restore_state(const std::vector<std::uint8_t>& bytes) {
    serial_.restore_state(bytes);
    // The engine is the one holder of stream state; the producer's cutter
    // and counters resume from it.
    const core::StreamPosition position = serial_.position();
    const core::PipelineStats engine = serial_.stats();
    cutter_.restore(position.started, position.next_interval_start_s,
                    config_.interval_s, position.high_water_s,
                    engine.out_of_order_records);
    late_at_cut_ = engine.out_of_order_records;
    stats_ = ParallelStats{};
    stats_.records = engine.records;
    stats_.barriers = position.interval_index;
    records_since_barrier_ = 0;
    for (Chunk& chunk : pending_) chunk.clear();
  }

  core::PipelineConfig config_;
  ParallelConfig parallel_;
  core::ChangeDetectionPipeline serial_;
  std::unique_ptr<IngestInstruments> instruments_;
  std::unique_ptr<ShardSetBase> shards_;

 private:
  [[nodiscard]] std::size_t shard_of(std::uint64_t key) const noexcept {
    // Fixed key->shard routing: deterministic shard contents regardless of
    // thread scheduling, and disjoint per-shard key buffers.
    return static_cast<std::size_t>(common::mix64(key) % parallel_.workers);
  }

  void flush_chunk(std::size_t shard) {
    if (pending_[shard].empty()) return;
    shards_->submit(shard, std::move(pending_[shard]));
    pending_[shard] = Chunk{};
    pending_[shard].reserve(parallel_.batch_size);
  }

  void close_interval() {
    // The span now covers only the epoch stamp, not the merge: a wide
    // "interval_close_barrier" next to a short "barrier_combine" reads as
    // producer-side backpressure (max_pending_intervals reached).
    SCD_TRACE_SPAN("interval_close_barrier", "ingest");
    for (std::size_t i = 0; i < pending_.size(); ++i) flush_chunk(i);
    // The cut rides the epoch token to the merger and into the engine, so
    // the engine's position after this interval is the serial pipeline's.
    const EpochCut cut{cutter_.start_s(), config_.interval_s,
                       cutter_.high_water_s(),
                       cutter_.out_of_order() - late_at_cut_};
    late_at_cut_ = cutter_.out_of_order();
    ++stats_.barriers;
    cutter_.advance(config_.interval_s);
    records_since_barrier_ = 0;
    // May block on max_pending_intervals; rethrows a pending merge failure.
    shards_->close_epoch(cut);
  }

  /// Merger-thread consumer of one merged epoch, in close order. Runs the
  /// aggregation-tier ordering contract sequentially: ship (interval-batch
  /// tap) → serial ingest, whose last act is the interval-close callback
  /// (checkpoint) — docs/DISTRIBUTED.md.
  void handle_merged(core::IntervalBatch&& batch) {
    // Export tap BEFORE the serial ingest: the shipper must see the batch
    // while it is still intact, and ship-then-ingest-then-checkpoint is the
    // ordering the rejoin protocol relies on (docs/DISTRIBUTED.md).
    if (on_interval_batch_) {
      on_interval_batch_(serial_.position().interval_index, batch);
    }
    serial_.ingest_interval(std::move(batch));
  }

  // Producer-thread state. The cutter bins records ahead of the merger;
  // late_at_cut_ is its out-of-order count at the last cut.
  std::vector<Chunk> pending_;  // per-shard producer-side batches
  core::IntervalCutter cutter_;
  std::uint64_t late_at_cut_ = 0;
  std::uint64_t records_since_barrier_ = 0;
  ParallelStats stats_;
  std::function<void(std::uint64_t, const core::IntervalBatch&)>
      on_interval_batch_;
};

ParallelPipeline::ParallelPipeline(core::PipelineConfig config,
                                   ParallelConfig parallel)
    : impl_(std::make_unique<Impl>(std::move(config), parallel)) {}

ParallelPipeline::~ParallelPipeline() = default;
ParallelPipeline::ParallelPipeline(ParallelPipeline&&) noexcept = default;
ParallelPipeline& ParallelPipeline::operator=(ParallelPipeline&&) noexcept =
    default;

void ParallelPipeline::add(std::uint64_t key, double update, double time_s) {
  impl_->add(key, update, time_s);
}

void ParallelPipeline::add_record(const traffic::FlowRecord& record) {
  add(traffic::extract_key(record, impl_->config_.key_kind),
      traffic::extract_update(record, impl_->config_.update_kind),
      traffic::record_time_s(record));
}

void ParallelPipeline::start_at(double time_s) { impl_->start_at(time_s); }

void ParallelPipeline::flush() { impl_->flush(); }

void ParallelPipeline::drain() { impl_->drain(); }

const std::vector<core::IntervalReport>& ParallelPipeline::reports()
    const noexcept {
  return impl_->serial_.reports();
}

void ParallelPipeline::set_report_callback(
    std::function<void(const core::IntervalReport&)> callback) {
  impl_->serial_.set_report_callback(std::move(callback));
}

void ParallelPipeline::set_alarm_provenance_callback(
    std::function<void(const detect::AlarmProvenance&)> callback) {
  impl_->serial_.set_alarm_provenance_callback(std::move(callback));
}

void ParallelPipeline::set_interval_close_callback(
    std::function<void(std::size_t)> callback) {
  impl_->serial_.set_interval_close_callback(std::move(callback));
}

void ParallelPipeline::set_interval_batch_callback(
    std::function<void(std::uint64_t, const core::IntervalBatch&)> callback) {
  impl_->set_interval_batch_callback(std::move(callback));
}

std::vector<std::uint8_t> ParallelPipeline::save_state() const {
  return impl_->save_state();
}

void ParallelPipeline::restore_state(const std::vector<std::uint8_t>& bytes) {
  impl_->restore_state(bytes);
}

core::StreamPosition ParallelPipeline::position() const noexcept {
  return impl_->serial_.position();
}

core::PipelineStats ParallelPipeline::stats() const noexcept {
  return impl_->serial_.stats();
}

ParallelStats ParallelPipeline::parallel_stats() const noexcept {
  return impl_->parallel_stats();
}

const core::PipelineConfig& ParallelPipeline::config() const noexcept {
  return impl_->config_;
}

const ParallelConfig& ParallelPipeline::parallel_config() const noexcept {
  return impl_->parallel_;
}

const forecast::ModelConfig& ParallelPipeline::active_model() const noexcept {
  return impl_->serial_.active_model();
}

}  // namespace scd::ingest
