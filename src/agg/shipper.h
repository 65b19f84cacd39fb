// Shipper — the node side of the aggregation tier.
//
// Hooks into ParallelPipeline's interval-batch tap: at every interval-close
// barrier it rebuilds the interval's observed sketch from the merged
// registers, wraps it in a wire frame, ships it, and BLOCKS for the
// aggregator's ack before the barrier continues into serial ingest and
// checkpointing. That ordering (ship -> ack -> ingest -> checkpoint) is
// what makes crash recovery safe without any node-side outbox: a node that
// dies anywhere in the window re-ships the interval after restoring its
// checkpoint, and the aggregator's (node, interval) dedup absorbs the
// overlap — at-least-once delivery downgraded to exactly-once integration.
//
// Rejoin: the kHelloAck returned at connect() carries the next interval the
// aggregator expects of this node. ship() silently skips anything below it,
// so a node replaying its input from a checkpoint does not even pay the
// bandwidth of re-shipping integrated intervals.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/pipeline.h"
#include "ingest/parallel_pipeline.h"
#include "net/socket.h"
#include "net/wire.h"
#include "sketch/kary_sketch.h"
#include "sketch/serialize.h"

namespace scd::agg {

struct ShipperConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// This node's identity; must be in the aggregator's expected node set.
  std::uint64_t node_id = 0;
  /// Seconds to wait for a HelloAck/Ack before giving up (WireError(kIo)).
  /// <= 0 waits forever.
  double ack_timeout_s = 30.0;
};

class Shipper {
 public:
  explicit Shipper(ShipperConfig config);
  /// Detaches from an attached pipeline first (draining its merger), so a
  /// shipper destroyed before the pipeline can never be called into from
  /// the merger thread afterwards.
  ~Shipper();
  Shipper(const Shipper&) = delete;
  Shipper& operator=(const Shipper&) = delete;

  /// Connects and runs the Hello/HelloAck handshake, presenting
  /// config_fingerprint(pipeline). Returns the next interval index the
  /// aggregator expects from this node (0 for a fresh node; higher after a
  /// rejoin). Throws net::WireError when the connection fails, the
  /// aggregator refuses the handshake (unknown node, fingerprint mismatch),
  /// or the pipeline cannot be shipped: its key kind needs more than a
  /// 32-bit sketch packet, or its recovery mode is not replay (the packet
  /// carries no majority-vote state).
  std::uint64_t connect(const core::PipelineConfig& pipeline);

  /// Ships one interval and blocks for the ack. Returns false (without any
  /// network traffic) when the aggregator already integrated this interval
  /// from a previous incarnation of the node. Throws net::WireError on
  /// socket failure, a refused contribution, or an out-of-protocol reply.
  bool ship(std::uint64_t interval_index, const core::IntervalBatch& batch);

  /// Installs ship() as `pipeline`'s interval-batch callback, which runs on
  /// the pipeline's merger thread. The pipeline config must be the one
  /// passed to connect(). Either the Shipper outlives the pipeline, or —
  /// when destroyed first — the pipeline must still be alive so the
  /// destructor can drain and detach.
  void attach(ingest::ParallelPipeline& pipeline);

  /// Drains the attached pipeline's outstanding interval merges (shipping
  /// them) and uninstalls the callback. Called automatically by the
  /// destructor; safe to call when never attached. A pending merge failure
  /// is swallowed here — it stays rethrowable from the pipeline itself.
  void detach() noexcept;

  /// Sends kBye and closes — the clean end-of-stream. Safe to skip (a
  /// dropped connection is a normal lifecycle event for the aggregator);
  /// idempotent.
  void bye() noexcept;

  [[nodiscard]] bool connected() const noexcept { return sock_.valid(); }
  /// Next interval the aggregator expects (advances with every ack).
  [[nodiscard]] std::uint64_t next_to_ship() const noexcept {
    return next_to_ship_;
  }
  /// Intervals skipped by ship() because they were already integrated.
  [[nodiscard]] std::uint64_t skipped() const noexcept { return skipped_; }

 private:
  net::Frame send_and_await(net::MessageType type,
                            std::uint64_t interval_index,
                            std::span<const std::uint8_t> payload);

  ShipperConfig config_;
  net::Socket sock_;
  net::FrameReader reader_;
  sketch::FamilyRegistry registry_;
  sketch::KarySketch::FamilyPtr family_;
  core::PipelineConfig pipeline_{};
  ingest::ParallelPipeline* attached_ = nullptr;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t next_to_ship_ = 0;
  std::uint64_t skipped_ = 0;
};

}  // namespace scd::agg
