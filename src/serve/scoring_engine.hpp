// Micro-batched, hot-swappable scoring service over the trained MFPA models.
//
// Producers (telemetry receivers, the replay driver) push per-drive daily
// records into a bounded ingress queue; a drain loop pulls up to
// `max_batch` records at a time, runs them through the DriveStateStore
// (incremental cleaning), writes each feature row in place into the batch's
// one matrix with the active model's builder, scores the whole batch in one
// predict_proba call on the drain thread, and applies the AlertPolicy per
// drive. Scores are per-row and the drain is single-threaded, so results
// are independent of batch boundaries and queue timing — the batch/online
// parity tests rely on this.
//
// Backpressure: when the queue is full, submit() either blocks (default;
// producers slow to the service's sustainable rate) or sheds the record with
// accounting (`shed_on_full`) — a deliberately load-shedding deployment.
//
// Hot swap: every batch starts by atomically snapshotting the registry's
// current model (RCU read). A publish lands between batches: in-flight
// records finish on the old version (never dropped, never blocked), the
// next batch scores on the new one, and `model_swaps` counts the
// transitions observed.
//
// Observability: every throughput counter, the batch-size and latency
// histograms and the stage timers live in the process-wide
// obs::MetricsRegistry (mfpa_serve_* families, one label set per engine
// instance), so the same numbers a fleet operator graphs are exported by
// `serve-replay --metrics-out`, `mfpa metrics`, and read by perfbench/.
// EngineStats is a point-in-time snapshot of this engine's instruments (see
// docs/OBSERVABILITY.md).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "core/online_predictor.hpp"
#include "data/matrix.hpp"
#include "obs/metrics.hpp"
#include "serve/checkpoint.hpp"
#include "serve/drive_state_store.hpp"
#include "serve/model_registry.hpp"
#include "serve/record_sink.hpp"

namespace mfpa::serve {

struct EngineConfig {
  StoreConfig store;
  core::AlertPolicy alert_policy;
  std::size_t queue_capacity = 4096;
  std::size_t max_batch = 256;
  /// When true, submit() drops the record (counted) instead of blocking on a
  /// full queue.
  bool shed_on_full = false;
  /// When true, every scored row is retained for inspection (parity tests,
  /// the example); a production deployment leaves this off.
  bool record_scores = false;
  /// When true, no drain thread is started; the owner calls drain_once()
  /// explicitly (deterministic unit tests, single-threaded embedding).
  bool manual_drain = false;
  /// Value of the `engine` label on this engine's mfpa_serve_* instruments.
  /// Empty picks the next process-wide sequence number (the historical
  /// behaviour); the ShardRouter sets "shard-N" so per-shard queue depth,
  /// high-water-mark, and shed counts are observable per shard (and stable
  /// across runs, unlike the sequence numbers).
  std::string instance_label;
  /// Crash consistency (WAL + checkpoints). Durability is off unless a
  /// durable directory is configured; see docs/DURABILITY.md.
  DurabilityConfig durability;
};

/// One retained scored row (record_scores mode).
struct ScoredRow {
  std::uint64_t drive_id = 0;
  DayIndex day = 0;
  double score = 0.0;
  int model_version = 0;
  bool synthetic = false;
};

/// Point-in-time copy of this engine's registry instruments. Histograms are
/// copied whole so callers can take quantiles without holding engine locks.
struct EngineStats {
  std::uint64_t submitted = 0;        ///< submit() calls
  std::uint64_t accepted = 0;         ///< enqueued (submitted - shed)
  std::uint64_t shed = 0;             ///< dropped by shed_on_full
  std::uint64_t rejected = 0;         ///< strict-mode day-order violations
  std::uint64_t unscored_no_model = 0;///< rows ready before any publish
  std::uint64_t records_processed = 0;///< records drained through the store
  std::uint64_t rows_scored = 0;      ///< cleaned rows scored (incl. synthetic)
  std::uint64_t synthetic_rows = 0;   ///< gap-fill rows among rows_scored
  std::uint64_t batches = 0;
  std::uint64_t alerts = 0;
  std::uint64_t model_swaps = 0;      ///< version changes observed by the drain
  stats::Histogram batch_size;
  stats::Histogram latency_us;
  std::size_t max_queue_depth = 0;
};

class ScoringEngine final : public RecordSink {
 public:
  /// The registry must outlive the engine. A model need not be published
  /// yet: rows that become scoreable before the first publish are counted
  /// as `unscored_no_model` and the queue keeps draining (the service
  /// starts, the model catches up).
  ///
  /// With config.durability enabled the constructor recovers before the
  /// drain thread starts: newest valid checkpoint into the store, durable
  /// alerts into the alert stream, the WAL tail re-applied through the
  /// normal scoring path. Recovery failures (mid-stream corruption, model
  /// version mismatch, alert-stream hole) throw std::runtime_error.
  ScoringEngine(const ModelRegistry& registry, EngineConfig config);
  ~ScoringEngine() override;

  const EngineConfig& config() const noexcept { return config_; }
  const DriveStateStore& store() const noexcept { return store_; }

  /// Enqueues one record. Returns false only when shed_on_full dropped it.
  bool submit(const TelemetryUpdate& update) override;

  /// Blocks until everything submitted so far has been drained and scored
  /// and, with durability on, the I/O thread has written and fsynced every
  /// WAL group handed off and a staged checkpoint is published: the durable
  /// directory holds whole groups, the open group is still buffered, and
  /// nothing is being written. Rethrows a failed durable write. (Manual-drain
  /// mode: drains inline on the calling thread.)
  void flush();

  /// flush(), then this engine's processed/alert/shed totals.
  SinkTotals flush_totals() override;

  /// Drains and scores at most one micro-batch; returns the number of
  /// records processed (manual_drain mode; also safe while stopped).
  std::size_t drain_once();

  /// Stops the drain thread after flushing and, with durability on, seals
  /// the durable state with a final checkpoint. Idempotent; the destructor
  /// calls it.
  void stop();

  /// Alerts raised so far, in emission order.
  std::vector<core::Alert> alerts() const;

  /// Retained rows (record_scores mode), in scoring order; clears the log.
  std::vector<ScoredRow> take_scored_rows();

  EngineStats stats() const;

  /// Records durably applied before this process started (checkpoint +
  /// replayed WAL tail). A resuming feed skips this many records of its
  /// deterministic delivery order. 0 when durability is off or the durable
  /// dir was empty.
  std::uint64_t durable_resume_records() const noexcept {
    return durable_resume_records_;
  }

  /// What recovery found (tail omitted); nullopt when durability is off.
  const std::optional<RecoveryResult>& recovery() const noexcept {
    return recovery_;
  }

 private:
  using Clock = std::chrono::steady_clock;
  struct QueuedUpdate {
    TelemetryUpdate update;
    Clock::time_point enqueued;
  };

  const ModelRegistry* registry_;
  EngineConfig config_;
  DriveStateStore store_;

  // Durability (null when disabled). `recovering_` suppresses WAL appends
  // and checkpoint cadence while the constructor re-applies the WAL tail
  // through process_batch — those records are already durable.
  std::unique_ptr<DurabilityManager> durability_;
  bool recovering_ = false;
  bool final_checkpoint_done_ = false;
  std::uint64_t durable_resume_records_ = 0;
  std::optional<RecoveryResult> recovery_;

  // Ingress queue.
  mutable std::mutex queue_mu_;
  std::condition_variable queue_not_full_;
  std::condition_variable queue_not_empty_;
  std::condition_variable drained_;
  std::deque<QueuedUpdate> queue_;
  bool stopping_ = false;
  bool processing_ = false;

  // Cached builder for the active model version (drain loop only).
  std::shared_ptr<const ServedModel> cached_model_;
  std::optional<core::SampleBuilder> cached_builder_;

  // The drain loop's batch buffers, kept from batch to batch so that they
  // allocate only to grow: the rows the store emits and the feature matrix
  // they are written into.
  std::vector<PendingRow> rows_;
  data::Matrix features_;

  // Registry instruments (mfpa_serve_*, labeled per engine instance so a
  // snapshot reads back exactly this engine's traffic). Lock-free hot path:
  // counters/histograms are relaxed atomics; results_mu_ now only guards
  // the alert/score logs.
  struct Metrics {
    obs::Counter* submitted = nullptr;
    obs::Counter* accepted = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* unscored_no_model = nullptr;
    obs::Counter* records_processed = nullptr;
    obs::Counter* rows_scored = nullptr;
    obs::Counter* synthetic_rows = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* alerts = nullptr;
    obs::Counter* model_swaps = nullptr;
    obs::HistogramMetric* batch_size = nullptr;
    obs::HistogramMetric* latency_us = nullptr;
    /// mfpa_serve_stage_seconds, once per batch on every engine: the store
    /// ingest loop, the row build and one predict_proba call (both only
    /// when rows are scored), and the alert-policy loop (with a model).
    obs::HistogramMetric* store_ingest_seconds = nullptr;
    obs::HistogramMetric* features_seconds = nullptr;
    obs::HistogramMetric* predict_seconds = nullptr;
    obs::HistogramMetric* alerts_seconds = nullptr;
    /// Durable engines only: a batch's WAL appends, its on_batch_end, and
    /// (on the WAL commit thread) one I/O job.
    obs::HistogramMetric* wal_append_seconds = nullptr;
    obs::HistogramMetric* checkpoint_seconds = nullptr;
    obs::HistogramMetric* commit_seconds = nullptr;
    obs::Gauge* max_queue_depth = nullptr;
  };
  Metrics metrics_;

  // Retained results (alert stream, optional score log).
  mutable std::mutex results_mu_;
  std::vector<core::Alert> alerts_;
  std::vector<ScoredRow> scored_rows_;

  std::thread drain_thread_;

  void drain_loop();
  /// Pops up to max_batch queued records; the caller holds queue_mu_.
  std::vector<QueuedUpdate> pop_batch_locked();
  std::size_t process_batch(std::vector<QueuedUpdate>& batch);
  void recover_durable_state();
};

}  // namespace mfpa::serve
