// Shard workers for parallel ingestion (docs/PARALLEL_INGEST.md).
//
// W workers each own a private k-ary sketch drawn from ONE shared hash
// family — the precondition for COMBINE (§3.1): linear combination is only
// meaningful between sketches with identical hash functions. Records are
// routed to a fixed shard by key, so
//   * each shard's registers accumulate a deterministic subsequence of the
//     stream (single producer per queue, FIFO), and
//   * the per-shard distinct-key logs are disjoint — concatenating them at
//     the epoch boundary reproduces the serial pipeline's key set exactly.
//
// Interval close is epoch-based and asynchronous (docs/PERFORMANCE.md): the
// producer stamps one epoch-tagged token per queue after the interval's records
// and returns immediately. The token carries the producer's cut of the interval
// (EpochCut: bounds and out-of-order state), which rides through the handoff
// into the merged IntervalBatch. Each worker, on seeing the token, publishes
// its finished sketch and key log for that epoch and starts the next epoch on a
// fresh sketch and log buffer drawn from a shared pool (the merger recycles
// consumed ones back, so steady state is double-buffered with no allocation). A
// dedicated merger thread waits until all W shards have published epoch e,
// COMBINE-merges the handoffs in shard order, and hands the merged
// IntervalBatch to the owner's callback — epochs are merged and delivered
// strictly in order, off the ingest hot path. Workers therefore never stall at
// an interval boundary; the only producer-side wait is the max_outstanding
// backpressure cap. Sketch linearity makes the merge exact — the merged table
// equals the serial pipeline's table up to floating-point addition order within
// each register, and the fixed shard order keeps it bit-identical run to run.
//
// Locking contract (docs/CONCURRENCY.md): epoch_mutex_ guards the per-shard
// publish deques and the epoch counters; publish/collect go through the
// SCD_REQUIRES(epoch_mutex_) helpers so a clang -Wthread-safety build
// rejects an unlocked handoff access. pool_mutex_ guards the recycled
// sketch and key-log pools and is ordered after epoch_mutex_ (never the
// reverse). The stats counters are relaxed atomics: written by the producer
// thread, readable from any thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/numa.h"
#include "common/thread_annotations.h"
#include "core/key_set.h"
#include "core/pipeline.h"
#include "ingest/bounded_queue.h"
#include "ingest/ingest_metrics.h"
#include "obs/stage_timer.h"
#include "obs/trace.h"
#include "sketch/kary_sketch.h"

namespace scd::ingest {

/// One (key, update) stream item. Alias of the sketch layer's batch-record
/// type so a dequeued chunk feeds BasicKarySketch::update_batch directly.
using Record = sketch::Record;

/// Producer-side batch: the queue is locked once per chunk, not per record.
using Chunk = std::vector<Record>;

/// The producer's cut of one interval: its bounds, and the stream's
/// high-water mark and late-record count for it. Stamped into the epoch's
/// barrier tokens and copied into the merged IntervalBatch.
struct EpochCut {
  double start_s = 0.0;
  double len_s = 0.0;
  double high_water_s = 0.0;
  std::uint64_t late_records = 0;
};

struct ShardMessage {
  Chunk records;
  bool barrier = false;
  /// Epoch being closed; meaningful only on barrier tokens. The producer
  /// stamps tokens with consecutive epochs, so each worker's published
  /// handoffs are in epoch order by construction.
  std::uint64_t epoch = 0;
  EpochCut cut;  // barrier tokens only
};

/// Type-erased interface so ParallelPipeline can hold either family's shard
/// set behind one pointer (mirroring the core pipeline's engine dispatch).
class ShardSetBase {
 public:
  /// Merged-epoch delivery: (epoch, batch), invoked on the merger thread in
  /// strict epoch order. The batch's buffers are reused for the next epoch;
  /// a callback may move from it.
  using MergedBatchCallback =
      std::function<void(std::uint64_t, core::IntervalBatch&&)>;

  virtual ~ShardSetBase() = default;
  /// Enqueues a chunk for `shard` (blocking when the queue is full).
  virtual void submit(std::size_t shard, Chunk&& chunk) = 0;
  /// Arms asynchronous epoch merging: spawns the merger thread, which
  /// invokes `on_merged` once per closed epoch, in epoch order. At most
  /// `max_outstanding` epochs may be closed-but-unmerged before
  /// close_epoch() blocks (backpressure bound on pooled-sketch memory).
  /// Call once, before any record is submitted.
  virtual void begin_async(MergedBatchCallback on_merged,
                           std::size_t max_outstanding) = 0;
  /// Closes the current epoch without waiting for the merge: stamps one
  /// epoch-tagged token carrying `cut` per shard queue and returns. Rethrows
  /// a pending merger failure (a callback throw) on the calling thread.
  virtual void close_epoch(const EpochCut& cut = {}) = 0;
  /// Blocks until every closed epoch has been merged and delivered.
  /// Rethrows a pending merger failure.
  virtual void drain() = 0;
  /// True when every closed epoch has been merged and delivered.
  [[nodiscard]] virtual bool idle() const = 0;
  /// True on the merger thread, i.e. inside the merged-batch callback.
  [[nodiscard]] virtual bool on_merger_thread() const noexcept = 0;
  /// Closes all queues and joins the workers (and merger). Idempotent.
  /// Closed-but-unmerged epochs are discarded, like in-flight records.
  virtual void stop() = 0;
  [[nodiscard]] virtual std::size_t workers() const noexcept = 0;
  [[nodiscard]] virtual std::uint64_t backpressure_waits() const noexcept = 0;
  /// Records lost because close() raced a blocked push during shutdown.
  /// Nonzero only when the pipeline is destroyed with records in flight.
  [[nodiscard]] virtual std::uint64_t dropped_records() const noexcept = 0;
};

/// Templated on the sketch type (not the hash family) so the parallel path
/// covers every engine the core pipeline can run: plain k-ary (either
/// family) and the invertible majority-vote sketch (either family). Sketches
/// that recover keys from their own state (`recover_heavy_keys`) skip the
/// per-shard distinct-key logs entirely — that is the single-pass win —
/// and vote-carrying sketches publish their merged candidate/vote arrays
/// through IntervalBatch::mv_candidates / mv_votes.
template <typename SketchT>
class ShardSet final : public ShardSetBase {
 public:
  using Sketch = SketchT;
  using Family = typename SketchT::FamilyType;

  /// The sketch can enumerate heavy keys from its own state, so workers do
  /// not need to collect the interval's distinct keys for replay.
  static constexpr bool kRecovers =
      requires(const SketchT& s) { s.recover_heavy_keys(0.0); };
  /// The sketch carries majority-vote candidate/vote arrays that must ride
  /// along with the merged registers.
  static constexpr bool kHasVoteState =
      requires(const SketchT& s) { s.candidates(); };

  /// `queue_chunks` is the per-shard queue capacity in chunks; `instruments`
  /// may be null (metrics disabled).
  ShardSet(std::uint64_t seed, std::size_t h, std::size_t k,
           std::size_t worker_count, std::size_t queue_chunks,
           IngestInstruments* instruments)
      : family_(std::make_shared<const Family>(seed, h)),
        k_(k),
        instruments_(instruments),
        merged_(family_, k) {
    shards_.reserve(worker_count);
    for (std::size_t i = 0; i < worker_count; ++i) {
      shards_.push_back(std::make_unique<Shard>(queue_chunks));
    }
    for (std::size_t i = 0; i < worker_count; ++i) {
      shards_[i]->thread = std::thread([this, i] { run_worker(i); });
    }
  }

  ~ShardSet() override { stop(); }

  void submit(std::size_t shard, Chunk&& chunk) override {
    BoundedQueue<ShardMessage>& queue = shards_[shard]->queue;
    const auto n = static_cast<double>(chunk.size());
    ShardMessage msg{std::move(chunk), false, 0, {}};
    if (instruments_ != nullptr) instruments_->queue_records.add(n);
    if (!queue.try_push(msg)) {
      // mo: stats counter — single producer writes, any thread may read
      // via backpressure_waits(); no ordering ties it to other state.
      backpressure_waits_.fetch_add(1, std::memory_order_relaxed);
      if (instruments_ != nullptr) instruments_->backpressure_waits.inc();
      if (!queue.push(msg)) {
        // Closed mid-shutdown. The chunk is still intact (push leaves its
        // argument alone on failure), so the loss is counted instead of
        // vanishing: every dropped record biases the interval's sketch, and
        // an operator must be able to see that the stream was cut short.
        // mo: stats counter — same single-writer/any-reader contract.
        dropped_records_.fetch_add(msg.records.size(),
                                   std::memory_order_relaxed);
        if (instruments_ != nullptr) {
          instruments_->queue_records.add(-n);
          instruments_->shutdown_dropped_records.inc(msg.records.size());
        }
      }
    }
  }

  void begin_async(MergedBatchCallback on_merged,
                   std::size_t max_outstanding) override {
    on_merged_ = std::move(on_merged);
    max_outstanding_ = max_outstanding;
    merger_ = std::thread([this] { run_merger(); });
  }

  void close_epoch(const EpochCut& cut = {})
      SCD_EXCLUDES(epoch_mutex_) override {
    {
      common::MutexLock lock(epoch_mutex_);
      rethrow_merge_error_locked();
      // Backpressure: bound the closed-but-unmerged window so pooled-sketch
      // memory stays at max_outstanding_ + 1 sketch sets per shard.
      while (epochs_closed_ - epochs_merged_ >= max_outstanding_ &&
             merge_error_ == nullptr) {
        epoch_cv_.wait(epoch_mutex_);
      }
      rethrow_merge_error_locked();
    }
    stamp_epoch_tokens(cut);
  }

  void drain() SCD_EXCLUDES(epoch_mutex_) override {
    common::MutexLock lock(epoch_mutex_);
    while (epochs_merged_ < epochs_closed_ && merge_error_ == nullptr) {
      epoch_cv_.wait(epoch_mutex_);
    }
    rethrow_merge_error_locked();
  }

  [[nodiscard]] bool idle() const SCD_EXCLUDES(epoch_mutex_) override {
    common::MutexLock lock(epoch_mutex_);
    return epochs_merged_ == epochs_closed_;
  }

  [[nodiscard]] bool on_merger_thread() const noexcept override {
    // merger_ is assigned once, before the first epoch can close.
    return std::this_thread::get_id() == merger_.get_id();
  }

  void stop() SCD_EXCLUDES(epoch_mutex_) override {
    // Order matters: close the queues and join the workers FIRST, so every
    // epoch token already in flight is consumed and its handoff published
    // (close() lets consumers drain remaining items). Only then tell the
    // merger to finish — it merges and delivers every fully-published
    // epoch before exiting, preserving the synchronous-close guarantee
    // that a closed interval is never silently lost: an unflushed
    // destructor drops only records of the still-open interval.
    for (auto& shard : shards_) shard->queue.close();
    for (auto& shard : shards_) {
      if (shard->thread.joinable()) shard->thread.join();
    }
    {
      common::MutexLock lock(epoch_mutex_);
      stopping_ = true;
    }
    epoch_cv_.notify_all();
    if (merger_.joinable()) merger_.join();
  }

  [[nodiscard]] std::size_t workers() const noexcept override {
    return shards_.size();
  }
  [[nodiscard]] std::uint64_t backpressure_waits() const noexcept override {
    // mo: stats read — a point-in-time sample, no ordering required.
    return backpressure_waits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped_records() const noexcept override {
    // mo: stats read — a point-in-time sample, no ordering required.
    return dropped_records_.load(std::memory_order_relaxed);
  }

 private:
  /// One finished epoch from one shard: the worker's parked sketch, the
  /// interval's distinct keys (the worker KeySet's log; empty when
  /// kRecovers), and the record count.
  struct EpochHandoff {
    std::uint64_t epoch = 0;
    EpochCut cut;
    std::optional<Sketch> sketch;
    std::vector<std::uint64_t> keys;
    std::uint64_t records = 0;
  };

  struct Shard {
    explicit Shard(std::size_t queue_chunks) : queue(queue_chunks) {}
    BoundedQueue<ShardMessage> queue;
    // Published epochs, oldest first: appended by the worker, drained in
    // epoch order by the merger, both under the owning ShardSet's
    // epoch_mutex_ (a nested struct cannot name the outer instance's mutex
    // in an attribute, so the SCD_REQUIRES helpers below carry the
    // contract).
    std::deque<EpochHandoff> published;
    std::thread thread;
  };

  /// Stamps one epoch-tagged barrier token per shard queue and advances the
  /// closed-epoch counter. Producer thread only.
  void stamp_epoch_tokens(const EpochCut& cut) SCD_EXCLUDES(epoch_mutex_) {
    std::uint64_t epoch = 0;
    {
      common::MutexLock lock(epoch_mutex_);
      epoch = epochs_closed_++;
    }
    for (auto& shard : shards_) {
      ShardMessage token{{}, true, epoch, cut};
      shard->queue.push(token);
    }
  }

  /// Worker side of the epoch close: parks the finished interval's sketch
  /// and key set at the back of the shard's publish deque.
  void publish_handoff_locked(Shard& shard, EpochHandoff&& handoff)
      SCD_REQUIRES(epoch_mutex_) {
    shard.published.push_back(std::move(handoff));
  }

  /// True when every shard has published its oldest outstanding epoch.
  [[nodiscard]] bool epoch_ready_locked() const SCD_REQUIRES(epoch_mutex_) {
    for (const auto& shard : shards_) {
      if (shard->published.empty()) return false;
    }
    return true;
  }

  /// Pops the oldest published epoch from every shard, in shard order.
  /// Caller holds epoch_mutex_ and has seen epoch_ready_locked().
  [[nodiscard]] std::vector<EpochHandoff> take_epoch_locked()
      SCD_REQUIRES(epoch_mutex_) {
    std::vector<EpochHandoff> handoffs;
    handoffs.reserve(shards_.size());
    for (auto& shard : shards_) {
      handoffs.push_back(std::move(shard->published.front()));
      shard->published.pop_front();
    }
    return handoffs;
  }

  void rethrow_merge_error_locked() SCD_REQUIRES(epoch_mutex_) {
    if (merge_error_ != nullptr) std::rethrow_exception(merge_error_);
  }

  /// COMBINE-merges one epoch's W handoffs in shard order into batch_ and
  /// concatenates the key logs; recycles the consumed sketches and logs into
  /// the pool. Merger thread only, with no lock held — the handoffs were
  /// moved out under epoch_mutex_. merged_ and batch_ keep their buffers
  /// from epoch to epoch, so a steady-state merge allocates nothing.
  void merge_epoch(std::vector<EpochHandoff> handoffs)
      SCD_EXCLUDES(epoch_mutex_) {
    const obs::StageTimer timer(
        instruments_ != nullptr ? &instruments_->merge_seconds : nullptr,
        "barrier_combine", "ingest");
    // COMBINE(1, S_0, ..., 1, S_{W-1}) in shard order — fixed order keeps
    // the merged registers bit-identical run to run.
    merged_.set_zero();
    for (auto& handoff : handoffs) merged_.add_scaled(*handoff.sketch, 1.0);

    const EpochCut& cut = handoffs.front().cut;
    batch_.start_s = cut.start_s;
    batch_.len_s = cut.len_s;
    batch_.high_water_s = cut.high_water_s;
    batch_.late_records = cut.late_records;
    batch_.registers.assign(merged_.registers().begin(),
                            merged_.registers().end());
    if constexpr (kHasVoteState) {
      batch_.mv_candidates.assign(merged_.candidates().begin(),
                                  merged_.candidates().end());
      batch_.mv_votes.assign(merged_.votes().begin(), merged_.votes().end());
    }
    batch_.records = 0;
    batch_.keys.clear();
    for (auto& handoff : handoffs) {
      batch_.records += handoff.records;
      if constexpr (!kRecovers) {
        batch_.keys.insert(batch_.keys.end(), handoff.keys.begin(),
                           handoff.keys.end());
      }
    }
    recycle(std::move(handoffs));
  }

  /// Returns consumed handoff sketches (zeroed) and key logs to the pool,
  /// so workers start their next epoch without allocating.
  void recycle(std::vector<EpochHandoff> handoffs) SCD_EXCLUDES(pool_mutex_) {
    common::MutexLock lock(pool_mutex_);
    for (auto& handoff : handoffs) {
      handoff.sketch->set_zero();
      pool_.push_back(std::move(*handoff.sketch));
      if constexpr (!kRecovers) key_pool_.push_back(std::move(handoff.keys));
    }
  }

  /// A zeroed sketch for the worker's next epoch: pooled when available
  /// (steady state — the merger recycles one per shard per epoch),
  /// freshly allocated otherwise (first epochs only).
  [[nodiscard]] Sketch pooled_sketch() SCD_EXCLUDES(pool_mutex_) {
    {
      common::MutexLock lock(pool_mutex_);
      if (!pool_.empty()) {
        Sketch sketch = std::move(pool_.back());
        pool_.pop_back();
        return sketch;
      }
    }
    return Sketch(family_, k_);
  }

  /// A recycled key-log buffer (empty until the first epochs come back).
  [[nodiscard]] std::vector<std::uint64_t> pooled_key_log()
      SCD_EXCLUDES(pool_mutex_) {
    common::MutexLock lock(pool_mutex_);
    if (key_pool_.empty()) return {};
    std::vector<std::uint64_t> log = std::move(key_pool_.back());
    key_pool_.pop_back();
    return log;
  }

  /// Merger thread: merges published epochs strictly in order and delivers
  /// each batch to on_merged_. A callback throw is parked in merge_error_
  /// and rethrown on the producer thread (close_epoch/drain); the merger
  /// stops — the stream is failed, exactly like a synchronous close throw.
  void run_merger() {
    for (;;) {
      std::vector<EpochHandoff> handoffs;
      {
        common::MutexLock lock(epoch_mutex_);
        while (!epoch_ready_locked() && !stopping_) {
          epoch_cv_.wait(epoch_mutex_);
        }
        // Drain-on-stop: ready epochs are still merged and delivered after
        // stopping_ is set (the workers were joined first, so every closed
        // epoch is fully published by now); exit only when none remain.
        if (!epoch_ready_locked()) return;
        handoffs = take_epoch_locked();
      }
      const std::uint64_t epoch = handoffs.front().epoch;
      try {
        merge_epoch(std::move(handoffs));
        on_merged_(epoch, std::move(batch_));
      } catch (...) {
        common::MutexLock lock(epoch_mutex_);
        merge_error_ = std::current_exception();
        epoch_cv_.notify_all();
        return;
      }
      {
        common::MutexLock lock(epoch_mutex_);
        ++epochs_merged_;
      }
      epoch_cv_.notify_all();
    }
  }

  void run_worker(std::size_t index) {
    // Best-effort NUMA placement (common/numa.h): pin this worker to a node
    // round-robin BEFORE allocating its sketch, so the table and every
    // pooled sketch it later first-touches land on local memory. A no-op
    // without libnuma or on single-node hosts.
    common::numa_bind_index(index);
    Shard& shard = *shards_[index];
    // Worker-local interval state; only the epoch handoff is shared.
    Sketch sketch(family_, k_);
    core::KeySet keys;  // never filled when kRecovers
    std::uint64_t records = 0;
    obs::Histogram* apply_hist =
        instruments_ != nullptr ? instruments_->shard_apply_seconds[index]
                                : nullptr;
    for (;;) {
      std::optional<ShardMessage> msg;
      {
        // The dequeue span covers queue wait: a long "ingest_dequeue" next
        // to short "shard_update_batch" spans reads as a starved worker.
        SCD_TRACE_SPAN("ingest_dequeue", "ingest");
        msg = shard.queue.pop();
      }
      if (!msg.has_value()) break;
      if (msg->barrier) {
        EpochHandoff handoff;
        handoff.epoch = msg->epoch;
        handoff.cut = msg->cut;
        handoff.sketch.emplace(std::move(sketch));
        if constexpr (!kRecovers) {
          // The log rides the handoff; the set continues on a recycled one.
          handoff.keys = keys.take_log(pooled_key_log());
        }
        handoff.records = records;
        {
          common::MutexLock lock(epoch_mutex_);
          publish_handoff_locked(shard, std::move(handoff));
        }
        epoch_cv_.notify_all();
        // The worker starts the next epoch immediately — no wait for the
        // merge. The pooled sketch is the async scheme's double buffer.
        sketch = pooled_sketch();
        records = 0;
        continue;
      }
      {
        const obs::StageTimer timer(apply_hist, "shard_update_batch", "ingest",
                                    msg->records.size());
        // Batched UPDATE (docs/PERFORMANCE.md): hash-batch + per-row sweep,
        // bit-identical to per-record update() on this shard's subsequence.
        sketch.update_batch(msg->records);
        if constexpr (!kRecovers) {
          for (const Record& r : msg->records) keys.insert(r.key);
        }
      }
      records += msg->records.size();
      if (apply_hist != nullptr) {
        instruments_->batch_size.observe(
            static_cast<double>(msg->records.size()));
        instruments_->batch_records.inc(msg->records.size());
        instruments_->queue_records.add(
            -static_cast<double>(msg->records.size()));
      }
    }
  }

  std::shared_ptr<const Family> family_;
  std::size_t k_;
  IngestInstruments* instruments_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Epoch protocol state. epoch_mutex_ is ordered before pool_mutex_
  // (docs/CONCURRENCY.md lock-order table); in practice neither path nests
  // them today, but the declared order is the one any future nesting must
  // follow.
  mutable common::Mutex epoch_mutex_ SCD_ACQUIRED_BEFORE(pool_mutex_);
  common::CondVar epoch_cv_;
  std::uint64_t epochs_closed_ SCD_GUARDED_BY(epoch_mutex_) = 0;
  std::uint64_t epochs_merged_ SCD_GUARDED_BY(epoch_mutex_) = 0;
  bool stopping_ SCD_GUARDED_BY(epoch_mutex_) = false;
  std::exception_ptr merge_error_ SCD_GUARDED_BY(epoch_mutex_);
  // Merger-thread scratch, reused every epoch: the COMBINE target and the
  // batch handed to on_merged_.
  Sketch merged_;
  core::IntervalBatch batch_;
  // Recycled zeroed sketches and emptied key logs (double buffering):
  // merger refills, workers draw at each epoch boundary.
  common::Mutex pool_mutex_;
  std::vector<Sketch> pool_ SCD_GUARDED_BY(pool_mutex_);
  std::vector<std::vector<std::uint64_t>> key_pool_
      SCD_GUARDED_BY(pool_mutex_);
  // Async-mode configuration: written once by begin_async before any epoch
  // closes, read by the producer and merger afterwards.
  MergedBatchCallback on_merged_;
  std::size_t max_outstanding_ = 1;
  std::thread merger_;
  // Stats counters: producer thread writes, stats() may be called from any
  // thread (monitoring), so plain integers here were a data race.
  std::atomic<std::uint64_t> backpressure_waits_{0};
  std::atomic<std::uint64_t> dropped_records_{0};
};

}  // namespace scd::ingest
