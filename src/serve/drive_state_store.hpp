// Store of per-drive incremental state for one scoring engine.
//
// The batch Preprocessor recomputes a drive's cleaned history from scratch;
// at fleet scale the scoring service instead keeps one StreamingIngestor per
// drive (cumulative WindowsEvent/BSOD counters, short-gap fill, long-gap
// cut, lenient-mode sanitation) so a newly arrived record costs O(1), not
// O(history). The store is one map behind one mutex: its only writer is the
// engine's single drain loop, whose queue order is the per-drive delivery
// order the contract below needs. Parallelism comes from net::ShardRouter,
// which gives every shard its own engine and store.
//
// Retention rule (no knob): once a drive's rows are emitted, only its
// newest cleaned record stays — the one the next gap fill interpolates
// from; features read only the scored row. Records held back before the
// segment is usable (fewer than min_records real records plus their gap
// fills, or a quarantined drive's segment) stay until they are emitted.
//
// Emission contract (what keeps the service's alerts equal to the batch
// MfpaPipeline + OnlinePredictor replay): a drive's records are withheld
// until its current segment is usable (min_records real observations, not
// quarantined) and then emitted in order — the catch-up burst first, every
// subsequent cleaned record (synthetic gap-fills included) as it arrives. A
// long gap starts a fresh segment: emission state and alert hysteresis reset
// exactly like the batch path, which would never have seen the old segment.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/online_predictor.hpp"
#include "core/preprocess.hpp"
#include "core/streaming.hpp"
#include "obs/metrics.hpp"
#include "sim/telemetry.hpp"

namespace mfpa::serve {

struct StoreConfig {
  core::PreprocessConfig preprocess;
  /// No effect: the store is one map. Kept so callers that still set it
  /// (perfbench/) compile unchanged.
  std::size_t shards = 0;
};

/// One cleaned record ready for feature extraction + scoring.
struct PendingRow {
  std::uint64_t drive_id = 0;
  int vendor = 0;
  core::ProcessedRecord record;
  /// Segment generation the row belongs to. Alert hysteresis resets when a
  /// drive's scored rows cross into a new segment — carried on the row (not
  /// applied at ingest time) so the reset lands between the right two
  /// *scored* rows even when ingestion runs ahead of scoring within a
  /// micro-batch.
  int segment = 0;
};

/// Aggregate store accounting (snapshot).
struct StoreStats {
  std::size_t drives_tracked = 0;
  std::size_t drives_quarantined = 0;
  std::size_t records_ingested = 0;   ///< raw records fed in
  std::size_t rows_emitted = 0;       ///< cleaned rows handed to scoring
  std::size_t segments_restarted = 0; ///< long-gap cuts across the fleet
  IngestStats ingest;                 ///< merged sanitizer accounting
};

class DriveStateStore {
 public:
  explicit DriveStateStore(StoreConfig config);

  const StoreConfig& config() const noexcept { return config_; }

  /// Feeds one raw record, appending any rows that became ready for scoring
  /// to `out` (in per-drive day order). Strict mode propagates the
  /// sanitizer's std::invalid_argument on day-order violations; lenient mode
  /// absorbs them into the drive's ingest accounting.
  void ingest(std::uint64_t drive_id, int vendor,
              const sim::DailyRecord& record, std::vector<PendingRow>& out);

  /// Steps the drive's core::AlertGate (consecutive-crossing hysteresis +
  /// cooldown, the same gate OnlinePredictor runs) for one scored row. Must
  /// be called in the same order rows were emitted, with each row's
  /// `segment`; a segment change resets the gate exactly like the batch
  /// path restarting on the new segment. Returns true when an alert should
  /// be raised.
  bool should_alert(std::uint64_t drive_id, DayIndex day, int segment,
                    bool crossed, const core::AlertPolicy& policy);

  /// Accounting snapshot (takes the store lock briefly).
  StoreStats stats() const;

  /// Writes the store image, `store 3`: the tag line "store 3\n", then
  /// fixed-width little-endian fields (common/wire.hpp) — the aggregate
  /// counters, the drive count, and per drive, in id order, its emission
  /// cursor, alert gate and ingestor. The image depends only on the records
  /// applied, never on hash-map order. The string overload appends.
  /// load_state() rebuilds an image into an empty store, checking every
  /// count against a limit before allocating and refusing trailing bytes.
  /// It throws std::runtime_error on a malformed image and on any other
  /// tag, naming it. Call from the single drain thread or before start.
  void save_state(std::ostream& os) const;
  void save_state(std::string& out) const;
  void load_state(std::istream& is);

 private:
  struct DriveState {
    explicit DriveState(std::uint64_t id, int vendor,
                        const core::PreprocessConfig& config)
        : ingestor(id, vendor, config) {}
    core::StreamingIngestor ingestor;
    std::size_t emitted = 0;  ///< segment records already handed out
    int segments_seen = 0;
    bool quarantine_counted = false;  ///< metrics: transition seen
    // `alert_segment` is the segment generation the gate belongs to — it
    // trails `segments_seen` while already-emitted rows of the old segment
    // are still being scored, which is why the reset cannot happen at
    // ingest time (it would be batch-boundary dependent).
    core::AlertGate gate;
    int alert_segment = 0;
  };
  using DriveMap = std::unordered_map<std::uint64_t, DriveState>;

  /// Aggregate counters (the image's leading fields).
  struct Totals {
    std::size_t records_ingested = 0;
    std::size_t rows_emitted = 0;
    std::size_t segments_restarted = 0;
  };

  /// The retention rule: once every record of the segment is emitted, only
  /// the newest stays.
  static void retain(DriveState& state);
  /// Tracked drives in id order (caller holds mu_).
  std::vector<std::pair<std::uint64_t, const DriveState*>> by_id() const;
  void read_image(const std::string& bytes, Totals& totals,
                  DriveMap& drives) const;

  StoreConfig config_;
  mutable std::mutex mu_;
  DriveMap drives_;
  Totals totals_;

  // Registry instruments (mfpa_store_*), summed over every store in the
  // process: drives tracked, quarantines and long-gap cuts. The totals above
  // stay authoritative for StoreStats (per-store accounting).
  struct Metrics {
    obs::Counter* segments_restarted = nullptr;
    obs::Counter* drives_quarantined = nullptr;
    obs::Gauge* drives_tracked = nullptr;
  };
  Metrics metrics_;
};

}  // namespace mfpa::serve
