// Store of per-drive incremental state for one scoring engine.
//
// The batch Preprocessor recomputes a drive's cleaned history from scratch;
// at fleet scale the scoring service instead keeps one slot per drive and
// cleans each record as it arrives, so a newly arrived record costs O(1),
// not O(history). Cleaning is the batch path's own: the running W/B sums
// (core::next_source_record), the short-gap fill (core::gap_fills and
// core::CleanedRecord), the long-gap cut, and under --lenient the same
// RecordSanitizer in front of them. So wherever the batch keeps a drive's
// final segment, the rows the store emits for that segment have the batch
// records' features byte for byte (tests/serve/test_store_ingest.cpp). The
// store is one map behind one mutex: its only writer is the engine's
// single drain loop, whose queue order is the per-drive delivery order the
// contract below needs. Parallelism comes from net::ShardRouter, which
// gives every shard its own engine and store.
//
// Day order: strict mode throws std::invalid_argument on a day that does
// not follow the drive's newest record, and on a new drive whose vendor is
// not in the catalog (the engine counts both rejected); lenient mode drops
// a re-delivered day (an agent retrying an upload after a lost ACK) or a
// clock rollback idempotently and counts the fault.
//
// Retention rule (no knob): a slot keeps real records only, at source
// widths (core::SourceRecord: float32 SMART, the firmware index, u32
// running sums). Once a drive's rows are emitted, only its newest real
// record stays — the one the next gap fill interpolates from and the
// running sums continue from; features read only the scored row, which
// carries what they need (core::CleanedRecord). Real records held back
// before the segment is usable (fewer than min_records of them, or a
// quarantined drive's segment) stay until they are emitted; their gap
// fills are rebuilt then.
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
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/online_predictor.hpp"
#include "core/preprocess.hpp"
#include "core/robust_ingest.hpp"
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
  core::CleanedRecord record;
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
  IngestStats ingest;  ///< merged sanitizer accounting (lenient only)
};

class DriveStateStore {
 public:
  explicit DriveStateStore(StoreConfig config);

  const StoreConfig& config() const noexcept { return config_; }

  /// Feeds one raw record, appending any rows that became ready for scoring
  /// to `out` (in per-drive day order). Strict mode throws
  /// std::invalid_argument on a day-order violation and leaves the drive
  /// unchanged; lenient mode absorbs it into the drive's ingest accounting.
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

  /// Writes the store image, `store 5`: the tag line "store 5\n", then
  /// fixed-width little-endian fields (common/wire.hpp) — the ingest mode,
  /// the aggregate counters, the drive count, and each drive's slot in id
  /// order (docs/DURABILITY.md lists the fields). The image depends only on
  /// the records applied, never on hash-map order. The string overload
  /// appends. load_state() rebuilds an image into an empty store, checking
  /// every count against a limit before allocating and refusing trailing
  /// bytes. It throws std::runtime_error on a malformed image, on any other
  /// tag, naming it, and on an image written under the other ingest mode,
  /// naming both. Call from the single drain thread or before start.
  void save_state(std::ostream& os) const;
  void save_state(std::string& out) const;
  void load_state(std::istream& is);

 private:
  /// One drive's serving state, each field kept once: the running W/B
  /// sums and the day cursor are the newest real record's (newest()).
  struct DriveSlot {
    int vendor = 0;
    /// Long-gap cuts seen.
    int segment = 0;
    // `alert_segment` is the segment generation the gate belongs to — it
    // trails `segment` while already-emitted rows of the old segment are
    // still being scored, which is why the reset cannot happen at ingest
    // time (it would be batch-boundary dependent).
    int alert_segment = 0;
    core::AlertGate gate;
    /// The emission cursor: `last` holds the newest emitted real record.
    bool front_emitted = false;
    /// Metrics: the quarantine transition was counted.
    bool quarantine_counted = false;
    /// Non-synthetic records of the segment.
    std::size_t real_records = 0;
    /// The current segment's newest emitted real record.
    core::SourceRecord last;
    /// The segment's real records not yet emitted, oldest first; empty
    /// (and unallocated) once the segment is usable.
    std::vector<core::SourceRecord> held;
    /// Lenient mode only: the dirty-input state machine in front of the
    /// conversion. Strict slots check day order against the newest record.
    std::unique_ptr<core::RecordSanitizer> sanitizer;

    /// The segment's newest real record; null while it has none.
    const core::SourceRecord* newest() const noexcept {
      if (!held.empty()) return &held.back();
      return front_emitted ? &last : nullptr;
    }
  };
  // A slot's inline bytes: the newest real record (200 B) and the fields
  // around it. tests/serve/test_store_image.cpp bounds the image per drive.
  static_assert(sizeof(DriveSlot) <= 272, "a drive slot grew");

  using DriveMap = std::unordered_map<std::uint64_t, DriveSlot>;

  /// Aggregate counters (the image's leading fields).
  struct Totals {
    std::size_t records_ingested = 0;
    std::size_t rows_emitted = 0;
    std::size_t segments_restarted = 0;
  };

  /// Lenient mode: the drive's uploads are too corrupt to score (the batch
  /// Preprocessor's per-drive quarantine decision on the same deliveries).
  bool quarantined(const DriveSlot& slot) const noexcept;
  /// Appends the rows `rec` adds after the segment's real record `prev`.
  void emit(std::uint64_t drive_id, const DriveSlot& slot,
            const core::SourceRecord* prev, const core::SourceRecord& rec,
            std::vector<PendingRow>& out);
  /// Tracked drives in id order (caller holds mu_).
  std::vector<std::pair<std::uint64_t, const DriveSlot*>> by_id() const;
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
