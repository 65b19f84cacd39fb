#include "core/pipeline.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <deque>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/little_endian.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/interval_cutter.h"
#include "core/key_set.h"
#include "detect/detection.h"
#include "detect/provenance.h"
#include "forecast/runner.h"
#include "gridsearch/grid_search.h"
#include "hash/cw_hash.h"
#include "hash/tabulation_hash.h"
#include "obs/pipeline_metrics.h"
#include "obs/trace.h"
#include "sketch/kary_sketch.h"
#include "sketch/mv_sketch.h"
#include "sketch/serialize.h"
#include "traffic/flow_record.h"

namespace scd::core {

void PipelineConfig::validate() const {
  if (!(interval_s > 0.0)) {
    throw std::invalid_argument("PipelineConfig: interval_s must be > 0");
  }
  if (!hash::valid_bucket_count(k) || k < 2) {
    throw std::invalid_argument(
        "PipelineConfig: k must be a power of two in [2, 65536]");
  }
  if (h < 1 || h > sketch::kMaxRows) {
    throw std::invalid_argument("PipelineConfig: h must be in [1, 32]");
  }
  if (!(key_sample_rate > 0.0) || key_sample_rate > 1.0) {
    throw std::invalid_argument(
        "PipelineConfig: key_sample_rate must be in (0, 1]");
  }
  if (!(threshold >= 0.0)) {
    throw std::invalid_argument("PipelineConfig: threshold must be >= 0");
  }
  if (!(baseline_alpha > 0.0) || baseline_alpha > 1.0) {
    throw std::invalid_argument(
        "PipelineConfig: baseline_alpha must be in (0, 1]");
  }
  if (!model.valid()) {
    throw std::invalid_argument("PipelineConfig: invalid forecast model: " +
                                model.to_string());
  }
  if (min_consecutive < 1) {
    throw std::invalid_argument("PipelineConfig: min_consecutive must be >= 1");
  }
  if (refit_every > 0 && refit_window < 4) {
    throw std::invalid_argument(
        "PipelineConfig: refit_window must be >= 4 when re-fitting");
  }
  if (recovery != RecoveryMode::kReplay) {
    // The sketch-recovery modes keep no key set: replay scheduling and key
    // sampling are meaningless, so reject non-default settings instead of
    // silently ignoring them.
    if (replay != KeyReplayMode::kCurrentInterval) {
      throw std::invalid_argument(
          "PipelineConfig: sketch-recovery modes require "
          "KeyReplayMode::kCurrentInterval (replay scheduling does not "
          "apply)");
    }
    if (key_sample_rate != 1.0) {
      throw std::invalid_argument(
          "PipelineConfig: sketch-recovery modes require key_sample_rate == "
          "1.0 (no keys are sampled)");
    }
  }
}

std::uint64_t config_fingerprint(const PipelineConfig& config) noexcept {
  // FNV-1a64 over the state-determining fields, in declaration order.
  // Lives in core (not checkpoint) because provenance records and
  // flight-recorder dumps stamp it too; checkpoint delegates here.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix_u64 = [&hash](std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  };
  const auto mix_f64 = [&mix_u64](double v) noexcept {
    mix_u64(std::bit_cast<std::uint64_t>(v));
  };
  mix_f64(config.interval_s);
  mix_u64(config.h);
  mix_u64(config.k);
  mix_u64(config.seed);
  mix_u64(static_cast<std::uint64_t>(config.key_kind));
  mix_u64(static_cast<std::uint64_t>(config.update_kind));
  mix_u64(static_cast<std::uint64_t>(config.model.kind));
  mix_u64(config.model.window);
  mix_f64(config.model.alpha);
  mix_f64(config.model.beta);
  mix_f64(config.model.gamma);
  mix_u64(config.model.period);
  mix_u64(static_cast<std::uint64_t>(config.model.arima.p));
  mix_u64(static_cast<std::uint64_t>(config.model.arima.d));
  mix_u64(static_cast<std::uint64_t>(config.model.arima.q));
  for (const double c : config.model.arima.ar) mix_f64(c);
  for (const double c : config.model.arima.ma) mix_f64(c);
  mix_f64(config.threshold);
  mix_u64(static_cast<std::uint64_t>(config.criterion));
  mix_u64(static_cast<std::uint64_t>(config.baseline));
  mix_f64(config.baseline_alpha);
  mix_u64(static_cast<std::uint64_t>(config.replay));
  mix_f64(config.key_sample_rate);
  mix_u64(config.randomize_intervals ? 1 : 0);
  mix_u64(config.max_alarms_per_interval);
  mix_u64(config.min_consecutive);
  mix_u64(config.refit_every);
  mix_u64(config.refit_window);
  // The recovery mode is mixed only when it departs from kReplay: every
  // fingerprint computed before the field existed stays valid, so
  // checkpoints and provenance records from replay-mode deployments restore
  // unchanged.
  if (config.recovery != RecoveryMode::kReplay) {
    mix_u64(static_cast<std::uint64_t>(config.recovery));
  }
  // config.metrics deliberately excluded: observability never alters state.
  return hash;
}

namespace {

// ---------------------------------------------------------------------------
// Engine-state byte codec. The encoding is explicit little-endian so a
// checkpoint written on one host restores bit-identically on any other; the
// checkpoint layer (src/checkpoint) adds CRC framing and atomicity on top of
// this raw stream.

/// Engine-state stream layout version; bump on any field change.
/// v2: a deferred (kNextInterval) detection now also carries the interval's
/// forecast sketch, so alarm provenance survives a checkpoint/restore.
/// v3: recovery counters (recovery_candidates, keys_recovered) join the
/// stats block, and invertible-family signals carry their candidate/vote
/// state after the registers.
/// v4: no wall-clock fields (the stats block's stage budget and a deferred
/// report's stage timings are gone), so identical runs write identical
/// bytes.
constexpr std::uint64_t kEngineStateVersion = 4;
/// Trailing sentinel: catches a reader/writer field-order drift that happens
/// to stay inside the buffer.
constexpr std::uint64_t kEngineStateSentinel = 0x5cdc0de5e17a11edULL;

using common::ByteWriter;
/// Engine-state cursor: a stream cut off mid-field is a kTruncated
/// SerializeError. The parallel front-end's state codec reads through the
/// same reader.
using ByteReader = common::ByteReader<sketch::SerializeError,
                                      sketch::SerializeErrorKind::kTruncated>;

/// Bridges the engine's byte stream to the forecast layer's typed
/// StateWriter: signals (sketches) are written as a register count followed
/// by the raw register doubles. Invertible sketches append their
/// candidate/vote state (same cell count) so a restored error sketch stays
/// recoverable.
template <typename Sketch>
class SketchStateWriter final : public forecast::StateWriter<Sketch> {
 public:
  explicit SketchStateWriter(ByteWriter& out) : out_(out) {}
  void write_u64(std::uint64_t value) override { out_.u64(value); }
  void write_f64(double value) override { out_.f64(value); }
  void write_signal(const Sketch& value) override {
    const auto regs = value.registers();
    out_.u64(regs.size());
    for (const double r : regs) out_.f64(r);
    if constexpr (requires { value.candidates(); }) {
      out_.u64(value.candidates().size());
      for (const std::uint64_t c : value.candidates()) out_.u64(c);
      for (const double v : value.votes()) out_.f64(v);
    }
  }

 private:
  ByteWriter& out_;
};

template <typename Sketch>
class SketchStateReader final : public forecast::StateReader<Sketch> {
 public:
  SketchStateReader(ByteReader& in, std::size_t expected_registers)
      : in_(in), expected_(expected_registers) {}

  [[nodiscard]] std::uint64_t read_u64() override { return in_.u64(); }
  [[nodiscard]] double read_f64() override { return in_.f64(); }
  void read_signal(Sketch& out) override {
    const std::uint64_t n = in_.u64();
    if (n != expected_) {
      throw sketch::SerializeError(
          sketch::SerializeErrorKind::kBadDimensions,
          "engine state sketch has " + std::to_string(n) +
              " registers, expected " + std::to_string(expected_));
    }
    scratch_.resize(expected_);
    for (double& r : scratch_) r = in_.f64();
    out.load_registers(scratch_);
    if constexpr (requires { out.candidates(); }) {
      const std::size_t cells = out.candidates().size();
      const std::uint64_t aux = in_.u64();
      if (aux != cells) {
        throw sketch::SerializeError(
            sketch::SerializeErrorKind::kBadDimensions,
            "engine state vote table has " + std::to_string(aux) +
                " cells, expected " + std::to_string(cells));
      }
      std::vector<std::uint64_t> candidates(cells);
      for (std::uint64_t& c : candidates) c = in_.u64();
      std::vector<double> votes(cells);
      for (double& v : votes) {
        v = in_.f64();
        if (!std::isfinite(v) || v < 0.0) {
          throw sketch::SerializeError(
              sketch::SerializeErrorKind::kCorruptRegisters,
              "engine state vote table holds an invalid vote value");
        }
      }
      out.load_aux(candidates, votes);
    }
  }
  [[noreturn]] void fail(const std::string& what) override {
    throw sketch::SerializeError(sketch::SerializeErrorKind::kBadDimensions,
                                 "engine state: " + what);
  }

 private:
  ByteReader& in_;
  std::size_t expected_;
  std::vector<double> scratch_;
};

void write_model_config(ByteWriter& out, const forecast::ModelConfig& m) {
  out.u64(static_cast<std::uint64_t>(m.kind));
  out.u64(m.window);
  out.f64(m.alpha);
  out.f64(m.beta);
  out.f64(m.gamma);
  out.u64(m.period);
  out.u64(static_cast<std::uint64_t>(m.arima.p));
  out.u64(static_cast<std::uint64_t>(m.arima.d));
  out.u64(static_cast<std::uint64_t>(m.arima.q));
  for (const double c : m.arima.ar) out.f64(c);
  for (const double c : m.arima.ma) out.f64(c);
}

[[nodiscard]] forecast::ModelConfig read_model_config(ByteReader& in) {
  forecast::ModelConfig m;
  const std::uint64_t kind = in.u64();
  if (kind >
      static_cast<std::uint64_t>(forecast::ModelKind::kSeasonalHoltWinters)) {
    throw sketch::SerializeError(sketch::SerializeErrorKind::kCorruptRegisters,
                                 "engine state names an unknown model kind");
  }
  m.kind = static_cast<forecast::ModelKind>(kind);
  m.window = static_cast<std::size_t>(in.u64());
  m.alpha = in.f64();
  m.beta = in.f64();
  m.gamma = in.f64();
  m.period = static_cast<std::size_t>(in.u64());
  m.arima.p = static_cast<int>(in.u64());
  m.arima.d = static_cast<int>(in.u64());
  m.arima.q = static_cast<int>(in.u64());
  for (double& c : m.arima.ar) c = in.f64();
  for (double& c : m.arima.ma) c = in.f64();
  if (!m.valid()) {
    throw sketch::SerializeError(
        sketch::SerializeErrorKind::kCorruptRegisters,
        "engine state model config is invalid: " + m.to_string());
  }
  return m;
}

void write_rng(ByteWriter& out, const common::Rng& rng) {
  const common::Rng::Snapshot snap = rng.snapshot();
  for (const std::uint64_t word : snap.state) out.u64(word);
  out.f64(snap.cached_normal);
  out.u64(snap.has_cached_normal ? 1 : 0);
}

void read_rng(ByteReader& in, common::Rng& rng) {
  common::Rng::Snapshot snap;
  for (std::uint64_t& word : snap.state) word = in.u64();
  snap.cached_normal = in.f64();
  snap.has_cached_normal = in.u64() != 0;
  rng.restore(snap);
}

void write_report(ByteWriter& out, const IntervalReport& r) {
  out.u64(r.index);
  out.f64(r.start_s);
  out.f64(r.end_s);
  out.u64(r.records);
  out.u64(r.detection_ran ? 1 : 0);
  out.u64(r.keys_checked);
  out.f64(r.estimated_error_f2);
  out.f64(r.alarm_threshold);
  out.u64(r.alarms.size());
  for (const detect::Alarm& a : r.alarms) {
    out.u64(a.interval);
    out.u64(a.key);
    out.f64(a.error);
    out.f64(a.threshold_abs);
  }
}

[[nodiscard]] IntervalReport read_report(ByteReader& in) {
  IntervalReport r;
  r.index = static_cast<std::size_t>(in.u64());
  r.start_s = in.f64();
  r.end_s = in.f64();
  r.records = in.u64();
  r.detection_ran = in.u64() != 0;
  r.keys_checked = static_cast<std::size_t>(in.u64());
  r.estimated_error_f2 = in.f64();
  r.alarm_threshold = in.f64();
  const std::uint64_t alarms = in.u64();
  r.alarms.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(alarms, 1024)));  // defensive pre-reserve cap
  for (std::uint64_t i = 0; i < alarms; ++i) {
    detect::Alarm a;
    a.interval = static_cast<std::size_t>(in.u64());
    a.key = in.u64();
    a.error = in.f64();
    a.threshold_abs = in.f64();
    r.alarms.push_back(a);
  }
  return r;
}

class EngineBase {
 public:
  virtual ~EngineBase() = default;
  virtual void add(std::uint64_t key, double update, double time_s) = 0;
  virtual void ingest_interval(IntervalBatch&& batch) = 0;
  virtual void flush() = 0;
  [[nodiscard]] virtual const forecast::ModelConfig& active_model()
      const noexcept = 0;
  [[nodiscard]] virtual PipelineStats stats() const noexcept = 0;
  virtual void save_state(ByteWriter& out) const = 0;
  virtual void restore_state(ByteReader& in) = 0;
  virtual void set_interval_close_callback(
      std::function<void(std::size_t)> callback) = 0;
  virtual void set_alarm_provenance_callback(
      std::function<void(const detect::AlarmProvenance&)> callback) = 0;
  [[nodiscard]] virtual StreamPosition position() const noexcept = 0;
  /// Reports emitted so far: intervals closed minus any detection still
  /// deferred (kNextInterval). The restore path uses this to re-base the
  /// flush() report-count invariant.
  [[nodiscard]] virtual std::size_t reports_emitted() const noexcept = 0;
};

/// The pipeline engine, generic over the sketch family. SketchT decides the
/// key-identification strategy at compile time: a sketch exposing
/// recover_heavy_keys() (MvSketch) runs the replay-free recovery sweep and
/// keeps no key set at all; a plain k-ary sketch runs the paper's key
/// replay. The runtime RecoveryMode -> SketchT mapping lives in
/// ChangeDetectionPipeline::Impl.
///
/// add() stages records and applies them to the observed sketch in blocks of
/// kUpdateBlock through update_batch (bit-identical to per-record UPDATE:
/// every register still sees its updates in record order). The staging
/// buffer is drained before anything reads the observed sketch, i.e. at
/// every interval close.
template <typename SketchT>
class Engine final : public EngineBase {
 public:
  using Sketch = SketchT;
  using Family = typename SketchT::FamilyType;
  using Emit = std::function<void(IntervalReport&&)>;

  /// Replay-free sketch-recovery engine: changed keys are read out of the
  /// error sketch, never replayed.
  static constexpr bool kRecovers =
      requires(const SketchT& s) { s.recover_heavy_keys(0.0); };
  /// Sketch carries per-bucket candidate/vote state that shard merges and
  /// checkpoints must transport (the invertible family).
  static constexpr bool kHasVoteState =
      requires(const SketchT& s) { s.candidates(); };

  /// Records staged per update_batch call: one hash-batched row sweep of
  /// BasicKarySketch.
  static constexpr std::size_t kUpdateBlock = sketch::KarySketch::kUpdateBlock;

  Engine(const PipelineConfig& config, Emit emit)
      : config_(config),
        emit_(std::move(emit)),
        family_(std::make_shared<const Family>(config.seed, config.h)),
        observed_(family_, config.k),
        active_model_(config.model),
        sample_rng_(config.seed ^ 0x5a5a5a5a5a5a5a5aULL),
        interval_rng_(config.seed ^ 0x1234abcd5678ef90ULL),
        cutter_(config.randomize_intervals ? draw_interval_length()
                                           : config.interval_s) {
    staged_.reserve(kUpdateBlock);
    if (SCD_OBS_ENABLED && config_.metrics) {
      obs_ = &obs::PipelineInstruments::global();
    }
    // The single place sketch memory is accounted (the table never resizes).
    stats_.sketch_bytes = observed_.table_bytes();
    if (obs_ != nullptr) {
      obs_->sketch_bytes.set(static_cast<double>(stats_.sketch_bytes));
    }
    rebuild_runner();
  }

  void add(std::uint64_t key, double update, double time_s) override {
    if (!std::isfinite(update)) {
      throw std::invalid_argument(
          "ChangeDetectionPipeline: update must be finite");
    }
    // A late record is counted and binned into the open interval: the
    // "nondecreasing order" contract is enforced by correction, not by
    // aborting the stream or silently mis-binning.
    if (cutter_.place(time_s, [this] { close_interval(); }) &&
        obs_ != nullptr) {
      obs_->out_of_order.inc();
    }
    interval_open_ = true;
    // The records counter is batched into close_interval(): one shared
    // fetch_add per interval instead of one per record keeps this path free
    // of cross-core traffic (a per-record inc alone costs ~5% throughput).
    staged_.push_back({key, update});
    if (staged_.size() == kUpdateBlock) apply_staged();
    ++records_in_interval_;
    ++stats_.records;
    // Sketch-recovery engines never keep keys — that absence is the mode's
    // whole point (no per-interval key state, no second pass).
    if constexpr (!kRecovers) {
      if (config_.key_sample_rate >= 1.0 ||
          sample_rng_.bernoulli(config_.key_sample_rate)) {
        keys_.insert(key);
      }
    }
  }

  void ingest_interval(IntervalBatch&& batch) override {
    SCD_TRACE_SPAN_ARG("ingest_interval", "core", batch.records);
    if (batch.registers.size() != observed_.registers().size()) {
      throw std::invalid_argument(
          "ChangeDetectionPipeline::ingest_interval: register table size "
          "does not match the configured h*k");
    }
    if (!(batch.len_s > 0.0)) {
      throw std::invalid_argument(
          "ChangeDetectionPipeline::ingest_interval: len_s must be > 0");
    }
    if (interval_open_) {
      throw std::invalid_argument(
          "ChangeDetectionPipeline::ingest_interval: an interval opened by "
          "add() is still in progress");
    }
    if (cutter_.started() && batch.start_s < cutter_.start_s()) {
      throw std::invalid_argument(
          "ChangeDetectionPipeline::ingest_interval: batches must be "
          "time-ordered");
    }
    if constexpr (kHasVoteState) {
      if (batch.mv_candidates.size() != observed_.candidates().size() ||
          batch.mv_votes.size() != observed_.votes().size()) {
        throw std::invalid_argument(
            "ChangeDetectionPipeline::ingest_interval: majority-vote state "
            "size does not match the configured h*k");
      }
    }
    cutter_.jump_to(batch.start_s, batch.len_s, batch.high_water_s,
                    batch.late_records);
    if (obs_ != nullptr) obs_->out_of_order.inc(batch.late_records);
    observed_.load_registers(batch.registers);
    if constexpr (kHasVoteState) {
      observed_.load_aux(batch.mv_candidates, batch.mv_votes);
    }
    if constexpr (!kRecovers) {
      // Shard key lists are disjoint, but the aggregation tier concatenates
      // overlapping node lists: dedupe once here.
      keys_.insert(batch.keys);
    }
    records_in_interval_ = batch.records;
    stats_.records += batch.records;
    close_interval();
  }

  void flush() override {
    if (!cutter_.started()) return;
    if (interval_open_) close_interval();
    if (pending_.has_value()) {
      // kNextInterval: the last error sketch never sees future keys; emit an
      // empty-detection report so the interval is still accounted for.
      emit_pending({});
    }
  }

  [[nodiscard]] const forecast::ModelConfig& active_model()
      const noexcept override {
    return active_model_;
  }

  [[nodiscard]] PipelineStats stats() const noexcept override {
    PipelineStats s = stats_;  // sketch_bytes is fixed at construction
    s.out_of_order_records = cutter_.out_of_order();
    return s;
  }

  void set_interval_close_callback(
      std::function<void(std::size_t)> callback) override {
    on_interval_close_ = std::move(callback);
  }

  void set_alarm_provenance_callback(
      std::function<void(const detect::AlarmProvenance&)> callback) override {
    on_provenance_ = std::move(callback);
    // Stamped into every record; computed once, the config never changes.
    fingerprint_ = config_fingerprint(config_);
  }

  [[nodiscard]] StreamPosition position() const noexcept override {
    return {cutter_.started(), interval_index_, cutter_.start_s(),
            cutter_.high_water_s()};
  }

  [[nodiscard]] std::size_t reports_emitted() const noexcept override {
    return stats_.intervals_closed - (pending_.has_value() ? 1 : 0);
  }

  void save_state(ByteWriter& out) const override {
    if (interval_open_ || records_in_interval_ != 0 || !keys_.empty()) {
      throw std::logic_error(
          "ChangeDetectionPipeline::save_state: an interval is in progress; "
          "snapshot only at an interval boundary (see "
          "set_interval_close_callback)");
    }
    out.u64(kEngineStateVersion);
    // Config guards: restoring into a pipeline with different sketch
    // geometry or hashing would silently corrupt every later estimate, so
    // the stream pins the state-determining config axes.
    out.u64(config_.h);
    out.u64(config_.k);
    out.u64(config_.seed);
    out.u64(static_cast<std::uint64_t>(config_.key_kind));
    out.u64(static_cast<std::uint64_t>(config_.update_kind));

    out.u64(cutter_.started() ? 1 : 0);
    out.f64(cutter_.start_s());
    out.f64(cutter_.length_s());
    out.f64(cutter_.high_water_s());
    out.u64(interval_index_);
    write_model_config(out, active_model_);
    out.f64(smoothed_f2_);
    out.u64(have_smoothed_f2_ ? 1 : 0);
    write_rng(out, sample_rng_);
    write_rng(out, interval_rng_);
    out.u64(stats_.records);
    out.u64(stats_.intervals_closed);
    out.u64(stats_.alarms);
    out.u64(stats_.refits);
    out.u64(stats_.keys_replayed);
    out.u64(stats_.recovery_candidates);  // v3
    out.u64(stats_.keys_recovered);       // v3
    out.u64(stats_.hysteresis_suppressed);
    out.u64(cutter_.out_of_order());
    // Hysteresis streaks, sorted by key: the map's iteration order is not
    // deterministic, the byte stream must be.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> streaks;
    streaks.reserve(alarm_streaks_.size());
    for (const auto& [key, streak] : alarm_streaks_) {
      streaks.emplace_back(key, streak);
    }
    std::sort(streaks.begin(), streaks.end());
    out.u64(streaks.size());
    for (const auto& [key, streak] : streaks) {
      out.u64(key);
      out.u64(streak);
    }
    SketchStateWriter<Sketch> model_out(out);
    runner_->save_state(model_out);
    out.u64(pending_.has_value() ? 1 : 0);
    if (pending_.has_value()) {
      out.f64(pending_->est_f2);
      write_report(out, pending_->report);
      model_out.write_signal(pending_->error);
      model_out.write_signal(pending_->forecast);  // v2
    }
    out.u64(history_.size());
    for (const Sketch& s : history_) model_out.write_signal(s);
    out.u64(kEngineStateSentinel);
  }

  void restore_state(ByteReader& in) override {
    const std::uint64_t version = in.u64();
    if (version != kEngineStateVersion) {
      throw sketch::SerializeError(
          sketch::SerializeErrorKind::kBadVersion,
          "engine state version " + std::to_string(version) +
              " is not the supported version " +
              std::to_string(kEngineStateVersion));
    }
    if (in.u64() != config_.h || in.u64() != config_.k) {
      throw sketch::SerializeError(
          sketch::SerializeErrorKind::kBadDimensions,
          "engine state sketch geometry (h, k) does not match this "
          "pipeline's configuration");
    }
    if (in.u64() != config_.seed ||
        in.u64() != static_cast<std::uint64_t>(config_.key_kind) ||
        in.u64() != static_cast<std::uint64_t>(config_.update_kind)) {
      throw sketch::SerializeError(
          sketch::SerializeErrorKind::kFamilyMismatch,
          "engine state (seed, key kind, update kind) does not match this "
          "pipeline's configuration");
    }
    const bool started = in.u64() != 0;
    const double start_s = in.f64();
    const double length_s = in.f64();
    const double high_water_s = in.f64();
    interval_index_ = static_cast<std::size_t>(in.u64());
    active_model_ = read_model_config(in);
    smoothed_f2_ = in.f64();
    have_smoothed_f2_ = in.u64() != 0;
    read_rng(in, sample_rng_);
    read_rng(in, interval_rng_);
    stats_ = PipelineStats{};
    stats_.records = in.u64();
    stats_.intervals_closed = static_cast<std::size_t>(in.u64());
    stats_.alarms = static_cast<std::size_t>(in.u64());
    stats_.refits = static_cast<std::size_t>(in.u64());
    stats_.keys_replayed = in.u64();
    stats_.recovery_candidates = in.u64();  // v3
    stats_.keys_recovered = in.u64();       // v3
    stats_.hysteresis_suppressed = in.u64();
    cutter_.restore(started, start_s, length_s, high_water_s, in.u64());
    stats_.sketch_bytes = observed_.table_bytes();
    alarm_streaks_.clear();
    const std::uint64_t streaks = in.u64();
    for (std::uint64_t i = 0; i < streaks; ++i) {
      const std::uint64_t key = in.u64();
      alarm_streaks_[key] = static_cast<std::size_t>(in.u64());
    }
    rebuild_runner();
    SketchStateReader<Sketch> model_in(in, observed_.registers().size());
    runner_->restore_state(model_in);
    pending_.reset();
    if (in.u64() != 0) {
      Pending p{Sketch(family_, config_.k), Sketch(family_, config_.k), 0.0,
                IntervalReport{}};
      p.est_f2 = in.f64();
      p.report = read_report(in);
      model_in.read_signal(p.error);
      model_in.read_signal(p.forecast);  // v2
      pending_.emplace(std::move(p));
    }
    history_.clear();
    const std::uint64_t hist = in.u64();
    for (std::uint64_t i = 0; i < hist; ++i) {
      Sketch s(family_, config_.k);
      model_in.read_signal(s);
      history_.push_back(std::move(s));
    }
    if (in.u64() != kEngineStateSentinel) {
      throw sketch::SerializeError(
          sketch::SerializeErrorKind::kCorruptRegisters,
          "engine state sentinel mismatch: reader and writer disagree on "
          "the field layout");
    }
    // Boundary state: a snapshot is only taken between intervals, so the
    // open-interval accumulators restore to empty.
    observed_.set_zero();
    staged_.clear();
    keys_.clear();
    records_in_interval_ = 0;
    interval_open_ = false;
  }

 private:
  struct Pending {
    Sketch error;
    Sketch forecast;  // kept alongside the error so deferred detection can
                      // still reconstruct per-row provenance evidence
    double est_f2;
    IntervalReport report;  // partially filled
  };

  void rebuild_runner() {
    const Sketch prototype(family_, config_.k);
    runner_ = std::make_unique<forecast::ForecastRunner<Sketch>>(active_model_,
                                                                 prototype);
  }

  [[nodiscard]] double draw_interval_length() noexcept {
    const double len = interval_rng_.exponential(1.0 / config_.interval_s);
    return std::clamp(len, 0.25 * config_.interval_s,
                      4.0 * config_.interval_s);
  }

  /// Runs `fn` as one timed `stage` and returns its result.
  template <typename Fn>
  auto timed(obs::Stage stage, Fn&& fn) {
    const obs::StageTimer timer = obs::time_stage(obs_, stage);
    return fn();
  }

  /// Applies the staged records to the observed sketch as one sketch_update
  /// stage.
  void apply_staged() {
    if (staged_.empty()) return;
    const obs::StageTimer timer =
        obs::time_stage(obs_, obs::Stage::kSketchUpdate, staged_.size());
    observed_.update_batch(staged_);
    staged_.clear();
  }

  void close_interval() {
    apply_staged();  // timed as sketch_update, not as part of the close
    obs::StageTimer close_timer = obs::time_stage(
        obs_, obs::Stage::kIntervalClose, records_in_interval_);
    const double len_s = cutter_.length_s();
    IntervalReport report;
    report.index = interval_index_;
    report.start_s = cutter_.start_s();
    report.end_s = report.start_s + len_s;
    report.records = records_in_interval_;

    if (config_.randomize_intervals) {
      // Normalize to per-nominal-interval volume so intervals of different
      // lengths are comparable (§6; sketch linearity makes this a scale).
      observed_.scale(config_.interval_s / len_s);
    }

    if (config_.refit_every > 0) {
      history_.push_back(observed_);
      if (history_.size() > config_.refit_window) history_.pop_front();
    }

    if (obs_ != nullptr) {
      obs_->records.inc(records_in_interval_);  // batched from add()
      obs_->replay_buffer_keys.set(static_cast<double>(keys_.size()));
    }
    auto step = timed(obs::Stage::kForecast,
                      [this] { return runner_->step(observed_); });

    if (config_.replay == KeyReplayMode::kNextInterval) {
      // This interval's keys detect the *previous* interval's changes.
      if (pending_.has_value()) {
        emit_pending(keys_.keys());
      }
      if (step.has_value()) {
        Pending p{std::move(step->error), std::move(step->forecast), 0.0,
                  std::move(report)};
        p.est_f2 = timed(obs::Stage::kEstimateF2,
                         [&p] { return p.error.estimate_f2(); });
        p.report.detection_ran = true;
        if (obs_ != nullptr) obs_->detections.inc();
        pending_.emplace(std::move(p));
      } else {
        emit_(std::move(report));
      }
    } else {
      if (step.has_value()) {
        report.detection_ran = true;
        if (obs_ != nullptr) obs_->detections.inc();
        const double est_f2 = timed(obs::Stage::kEstimateF2, [&step] {
          return step->error.estimate_f2();
        });
        fill_detection(step->error, &step->forecast, est_f2, keys_.keys(),
                       report);
      }
      emit_(std::move(report));
    }

    observed_.set_zero();
    keys_.clear();
    records_in_interval_ = 0;
    interval_open_ = false;
    ++stats_.intervals_closed;
    cutter_.advance(config_.randomize_intervals ? draw_interval_length()
                                                : len_s);
    ++interval_index_;
    if (obs_ != nullptr) obs_->intervals_closed.inc();
    close_timer.stop();  // the re-fit is its own stage

    maybe_refit();

    // Last act of the close: every counter is advanced, the report is out
    // (or parked in pending_) and the accumulators are empty — the engine is
    // in exactly the state a restore reproduces. Checkpoint triggers hook
    // here so a snapshot can never straddle an interval.
    if (on_interval_close_) on_interval_close_(stats_.intervals_closed);
  }

  void emit_pending(std::span<const std::uint64_t> keys) {
    Pending p = std::move(*pending_);
    pending_.reset();
    fill_detection(p.error, &p.forecast, p.est_f2, keys, p.report);
    emit_(std::move(p.report));
  }

  void fill_detection(const Sketch& error, const Sketch* forecast,
                      double est_f2, std::span<const std::uint64_t> keys,
                      IntervalReport& report) {
    report.keys_checked = keys.size();
    report.estimated_error_f2 = est_f2;
    if constexpr (!kRecovers) stats_.keys_replayed += keys.size();
    // Threshold anchor: this interval's F2, or the smoothed history (which
    // a large in-progress change cannot inflate).
    double anchor_f2 = std::max(est_f2, 0.0);
    if (config_.baseline == ThresholdBaseline::kSmoothedF2) {
      if (have_smoothed_f2_) anchor_f2 = smoothed_f2_;
      smoothed_f2_ = have_smoothed_f2_
                         ? config_.baseline_alpha * std::max(est_f2, 0.0) +
                               (1.0 - config_.baseline_alpha) * smoothed_f2_
                         : std::max(est_f2, 0.0);
      have_smoothed_f2_ = true;
    }
    const double l2 = std::sqrt(anchor_f2);
    report.alarm_threshold = config_.threshold * l2;
    if (obs_ != nullptr) {
      if constexpr (!kRecovers) obs_->keys_replayed.inc(keys.size());
      obs_->last_error_l2.set(std::sqrt(std::max(est_f2, 0.0)));
      obs_->last_alarm_threshold.set(report.alarm_threshold);
    }
    if (l2 <= 0.0) return;  // degenerate error signal: nothing to flag
    const obs::StageTimer replay_timer =
        obs::time_stage(obs_, obs::Stage::kKeyReplay, keys.size());
    std::vector<detect::KeyError> ranked;
    if constexpr (kRecovers) {
      // Replay-free path: read the changed keys straight out of the error
      // sketch. Under the threshold criterion the bucket sweep prunes at
      // T_A; under top-N every voted bucket contributes its candidate and
      // the cap below keeps the largest.
      const double cut = config_.criterion == DetectionCriterion::kTopN
                             ? 0.0
                             : report.alarm_threshold;
      std::size_t swept = 0;
      const auto recovered = error.recover_heavy_keys(cut, &swept);
      report.keys_checked = recovered.size();
      stats_.recovery_candidates += swept;
      stats_.keys_recovered += recovered.size();
      ranked.reserve(recovered.size());
      for (const sketch::RecoveredHeavyKey& r : recovered) {
        ranked.push_back(detect::KeyError{r.key, r.value});
      }
      if (obs_ != nullptr) {
        obs_->recovery_candidates.inc(swept);
        obs_->recovery_keys.inc(recovered.size());
        obs_->recovery_last_keys.set(static_cast<double>(recovered.size()));
      }
    } else {
      // Threshold-first replay: batched ESTIMATE, and only the keys the
      // criterion can report are kept and sorted.
      const auto estimate = [&error](std::span<const std::uint64_t> batch,
                                     std::span<double> out) {
        error.estimate_batch(batch, out);
      };
      if (config_.criterion == DetectionCriterion::kTopN) {
        ranked = detect::rank_top_n(keys, estimate,
                                    config_.max_alarms_per_interval);
      } else {
        ranked = detect::rank_above_threshold(keys, estimate,
                                              config_.threshold, l2);
      }
    }
    auto flagged =
        config_.criterion == DetectionCriterion::kTopN
            ? detect::top_n(ranked, config_.max_alarms_per_interval)
            : detect::above_threshold(ranked, config_.threshold, l2);
    // Hysteresis (§6): require min_consecutive consecutive trips per key.
    std::vector<detect::KeyError> persistent;
    if (config_.min_consecutive > 1) {
      std::unordered_map<std::uint64_t, std::size_t> streaks;
      streaks.reserve(flagged.size() * 2);
      for (const detect::KeyError& e : flagged) {
        const auto it = alarm_streaks_.find(e.key);
        const std::size_t streak = 1 + (it != alarm_streaks_.end() ? it->second : 0);
        streaks.emplace(e.key, streak);
        if (streak >= config_.min_consecutive) persistent.push_back(e);
      }
      const std::size_t suppressed = flagged.size() - persistent.size();
      stats_.hysteresis_suppressed += suppressed;
      if (obs_ != nullptr) obs_->hysteresis_suppressed.inc(suppressed);
      alarm_streaks_ = std::move(streaks);  // keys not flagged reset to 0
      flagged = persistent;
    }
    const auto capped =
        flagged.subspan(0, std::min(flagged.size(),
                                    config_.max_alarms_per_interval));
    report.alarms = detect::make_alarms(capped, report.index,
                                        report.alarm_threshold);
    stats_.alarms += report.alarms.size();
    if (on_provenance_ && forecast != nullptr) {
      emit_provenance(error, *forecast, est_f2, report);
    }
    if (obs_ != nullptr) {
      (config_.criterion == DetectionCriterion::kTopN ? obs_->alarms_topn
                                                      : obs_->alarms_threshold)
          .inc(report.alarms.size());
    }
  }

  /// One provenance record per alarm: per-row evidence re-read from the
  /// error and forecast sketches. The observed sketch is long gone by now,
  /// but S_o = S_f + S_e elementwise, so each row's observed estimate is
  /// exactly forecast_i + error_i and the reported `observed` median is
  /// bit-equal to ESTIMATE on the observed sketch.
  void emit_provenance(const Sketch& error, const Sketch& forecast,
                       double est_f2, const IntervalReport& report) {
    const std::size_t h = config_.h;
    std::vector<double> err_buckets(h);
    std::vector<double> err_est(h);
    std::vector<double> fc_buckets(h);
    std::vector<double> fc_est(h);
    std::vector<double> scratch(h);
    for (const detect::Alarm& alarm : report.alarms) {
      error.estimate_rows(alarm.key, err_buckets, err_est);
      forecast.estimate_rows(alarm.key, fc_buckets, fc_est);
      detect::AlarmProvenance prov;
      prov.interval = alarm.interval;
      prov.key = alarm.key;
      for (std::size_t i = 0; i < h; ++i) scratch[i] = fc_est[i] + err_est[i];
      prov.observed = sketch::median_inplace(scratch);
      scratch = fc_est;
      prov.forecast = sketch::median_inplace(scratch);
      prov.error = alarm.error;
      prov.threshold = config_.threshold;
      prov.threshold_abs = alarm.threshold_abs;
      prov.error_f2 = est_f2;
      prov.row_error_buckets = err_buckets;
      prov.row_error_estimates = err_est;
      prov.row_forecast_estimates = fc_est;
      prov.config_fingerprint = fingerprint_;
      prov.model = active_model_.to_string();
      on_provenance_(prov);
    }
  }

  void maybe_refit() {
    if (config_.refit_every == 0 || interval_index_ == 0) return;
    if (interval_index_ % config_.refit_every != 0) return;
    if (history_.size() < 4) return;  // not enough signal to fit
    const obs::StageTimer refit_timer =
        obs::time_stage(obs_, obs::Stage::kRefit);
    if (obs_ != nullptr) obs_->refits.inc();
    const Sketch prototype(family_, config_.k);
    const gridsearch::Objective objective =
        [this, &prototype](const forecast::ModelConfig& candidate) {
          forecast::ForecastRunner<Sketch> trial(candidate, prototype);
          double total = 0.0;
          for (const Sketch& obs : history_) {
            if (const auto step = trial.step(obs); step.has_value()) {
              total += std::max(step->error.estimate_f2(), 0.0);
            }
          }
          return total;
        };
    gridsearch::GridSearchOptions options;
    options.max_window = std::max<std::size_t>(2, history_.size() / 2);
    const auto result =
        gridsearch::grid_search(active_model_.kind, objective, options);
    active_model_ = result.best;
    ++stats_.refits;
    // Swap in the re-fitted model, warmed with the retained history.
    rebuild_runner();
    for (const Sketch& obs : history_) (void)runner_->step(obs);
  }

  PipelineConfig config_;
  Emit emit_;
  std::shared_ptr<const Family> family_;
  Sketch observed_;
  std::unique_ptr<forecast::ForecastRunner<Sketch>> runner_;
  forecast::ModelConfig active_model_;
  common::Rng sample_rng_;
  common::Rng interval_rng_;
  IntervalCutter cutter_;  // declared after interval_rng_: draws from it
  /// Records accepted by add() but not yet applied to observed_.
  std::vector<sketch::Record> staged_;
  /// True between a record landing (add) and the interval's close; flush
  /// closes only open intervals so ingest_interval (which closes eagerly)
  /// does not leave a phantom empty interval behind.
  bool interval_open_ = false;
  std::size_t interval_index_ = 0;
  std::uint64_t records_in_interval_ = 0;
  /// The open interval's distinct replay keys (never filled when
  /// kRecovers).
  KeySet keys_;
  std::unordered_map<std::uint64_t, std::size_t> alarm_streaks_;
  double smoothed_f2_ = 0.0;
  bool have_smoothed_f2_ = false;
  std::optional<Pending> pending_;
  std::deque<Sketch> history_;
  PipelineStats stats_;
  std::function<void(std::size_t)> on_interval_close_;
  std::function<void(const detect::AlarmProvenance&)> on_provenance_;
  std::uint64_t fingerprint_ = 0;  // set with the provenance callback
  /// Shared process-wide instruments; null when config.metrics is false or
  /// the library was built with SCD_OBS_ENABLED=0 (every counter site is
  /// then one null test per interval, and every stage timer compiles away).
  obs::PipelineInstruments* obs_ = nullptr;
};

}  // namespace

class ChangeDetectionPipeline::Impl {
 public:
  explicit Impl(PipelineConfig config) : config_(std::move(config)) {
    config_.validate();
    const auto emit = [this](IntervalReport&& report) {
      if (callback_) callback_(report);
      reports_.push_back(std::move(report));
    };
    // RecoveryMode x key width -> engine sketch type.
    const bool key32 = traffic::key_fits_32bit(config_.key_kind);
    switch (config_.recovery) {
      case RecoveryMode::kReplay:
        if (key32) {
          engine_ = std::make_unique<Engine<sketch::KarySketch>>(config_, emit);
        } else {
          engine_ =
              std::make_unique<Engine<sketch::KarySketch64>>(config_, emit);
        }
        break;
      case RecoveryMode::kInvertible:
        if (key32) {
          engine_ = std::make_unique<Engine<sketch::MvSketch>>(config_, emit);
        } else {
          engine_ = std::make_unique<Engine<sketch::MvSketch64>>(config_, emit);
        }
        break;
    }
  }

  PipelineConfig config_;
  std::unique_ptr<EngineBase> engine_;
  std::vector<IntervalReport> reports_;
  /// Reports emitted before a restored snapshot was taken: the restored
  /// engine's intervals_closed includes them, reports_ does not.
  std::size_t reports_offset_ = 0;
  std::function<void(const IntervalReport&)> callback_;
};

ChangeDetectionPipeline::ChangeDetectionPipeline(PipelineConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

ChangeDetectionPipeline::~ChangeDetectionPipeline() = default;
ChangeDetectionPipeline::ChangeDetectionPipeline(
    ChangeDetectionPipeline&&) noexcept = default;
ChangeDetectionPipeline& ChangeDetectionPipeline::operator=(
    ChangeDetectionPipeline&&) noexcept = default;

void ChangeDetectionPipeline::add_record(const traffic::FlowRecord& record) {
  add(traffic::extract_key(record, impl_->config_.key_kind),
      traffic::extract_update(record, impl_->config_.update_kind),
      traffic::record_time_s(record));
}

void ChangeDetectionPipeline::add(std::uint64_t key, double update,
                                  double time_s) {
  impl_->engine_->add(key, update, time_s);
}

void ChangeDetectionPipeline::ingest_interval(IntervalBatch&& batch) {
  impl_->engine_->ingest_interval(std::move(batch));
}

void ChangeDetectionPipeline::flush() {
  impl_->engine_->flush();
  // Every closed interval must have produced exactly one report, whether it
  // was emitted immediately (kCurrentInterval), deferred one interval
  // (kNextInterval), or flushed with an empty key set. Replay modes added
  // later must preserve this.
  const std::size_t closed = impl_->engine_->stats().intervals_closed;
  const std::size_t emitted = impl_->reports_offset_ + impl_->reports_.size();
  if (closed != emitted) {
    SCD_ERROR() << "pipeline invariant violated after flush: "
                << closed << " intervals closed but "
                << emitted << " reports emitted";
    assert(closed == emitted);
  }
}

const std::vector<IntervalReport>& ChangeDetectionPipeline::reports()
    const noexcept {
  return impl_->reports_;
}

void ChangeDetectionPipeline::set_report_callback(
    std::function<void(const IntervalReport&)> callback) {
  impl_->callback_ = std::move(callback);
}

void ChangeDetectionPipeline::set_interval_close_callback(
    std::function<void(std::size_t)> callback) {
  impl_->engine_->set_interval_close_callback(std::move(callback));
}

void ChangeDetectionPipeline::set_alarm_provenance_callback(
    std::function<void(const detect::AlarmProvenance&)> callback) {
  impl_->engine_->set_alarm_provenance_callback(std::move(callback));
}

std::vector<std::uint8_t> ChangeDetectionPipeline::save_state() const {
  std::vector<std::uint8_t> bytes;
  ByteWriter out(bytes);
  impl_->engine_->save_state(out);
  return bytes;
}

void ChangeDetectionPipeline::restore_state(
    const std::vector<std::uint8_t>& bytes) {
  ByteReader in(bytes, "engine state");
  impl_->engine_->restore_state(in);
  if (in.remaining() != 0) {
    throw sketch::SerializeError(
        sketch::SerializeErrorKind::kTrailingBytes,
        "engine state has " + std::to_string(in.remaining()) +
            " unconsumed trailing bytes");
  }
  impl_->reports_.clear();
  impl_->reports_offset_ = impl_->engine_->reports_emitted();
}

StreamPosition ChangeDetectionPipeline::position() const noexcept {
  return impl_->engine_->position();
}

const forecast::ModelConfig& ChangeDetectionPipeline::active_model()
    const noexcept {
  return impl_->engine_->active_model();
}

PipelineStats ChangeDetectionPipeline::stats() const noexcept {
  return impl_->engine_->stats();
}

const PipelineConfig& ChangeDetectionPipeline::config() const noexcept {
  return impl_->config_;
}

}  // namespace scd::core
