// Streaming ingestion — the client-agent view of preprocessing.
//
// The batch Preprocessor assumes a drive's full history is in hand; a
// deployed agent instead sees one upload at a time and must maintain the
// same cleaned state incrementally: cumulative W/B counters, the short-gap
// fill, and the long-gap cut (a gap >= drop_gap starts a fresh segment,
// discarding accumulated context exactly as the batch path would).
//
// Invariant (tested): feeding a drive's records one by one through a
// StreamingIngestor yields byte-identical ProcessedRecords to running the
// batch Preprocessor over the same series, whenever the batch keeps the
// final segment (the streaming agent cannot know a *future* gap will
// invalidate its current segment; it always lives in the newest one).
// The invariant holds in *both* robustness modes: lenient mode runs the
// same RecordSanitizer in front of the same gap logic as the batch path,
// so it extends verbatim to corrupted input (tested in
// tests/core/test_robust_ingest.cpp).
#pragma once

#include <iosfwd>
#include <optional>
#include <vector>

#include "core/preprocess.hpp"
#include "core/robust_ingest.hpp"
#include "sim/telemetry.hpp"

namespace mfpa::core {

/// Incremental per-drive preprocessing state.
class StreamingIngestor {
 public:
  StreamingIngestor(std::uint64_t drive_id, int vendor,
                    PreprocessConfig config = {});

  /// Ingests the next raw daily record. Returns the cleaned records this
  /// upload produced: possibly several (gap-fill synthesizes intermediate
  /// days), possibly the start of a fresh segment (long gap), possibly none.
  ///
  /// Day-order contract (config().robustness):
  ///  * strict — days must be strictly increasing; throws
  ///    std::invalid_argument otherwise (the historical behavior);
  ///  * lenient — a re-delivered day (an agent retrying an upload after a
  ///    lost ACK) is IDEMPOTENT: the call returns empty, changes no state,
  ///    and counts a `duplicate_days` fault; a day earlier than one already
  ///    seen is dropped the same way as a `clock_rollbacks` fault. Bad
  ///    values are repaired and counter resets re-based per the config.
  std::vector<ProcessedRecord> ingest(const sim::DailyRecord& record);

  /// Records of the *current* segment, oldest first.
  const std::vector<ProcessedRecord>& segment() const noexcept {
    return segment_;
  }

  /// True when the current segment has enough real records to be usable for
  /// scoring (min_records of the config) and the drive is not quarantined.
  bool usable() const noexcept;

  /// Lenient mode: true when the sanitizer-dropped fraction of delivered
  /// records exceeds the configured quarantine threshold — the drive's
  /// uploads are too corrupt to score. Matches the batch Preprocessor's
  /// per-drive quarantine decision on the same delivery sequence.
  bool quarantined() const noexcept;

  /// Sanitation accounting for this drive (delivered / repaired / dropped
  /// records and per-fault counters).
  const IngestStats& ingest_stats() const noexcept {
    return sanitizer_.stats();
  }

  /// Drops every record of the current segment but the newest; returns how
  /// many were dropped. The conversion state (cumulative counters, last
  /// day, sanitizer) is independent of the retained records, and gap
  /// filling reads only segment().back(), so compaction never changes
  /// future ingest output. The serving tier's DriveStateStore compacts
  /// once a drive's rows are emitted, which keeps its state O(1).
  std::size_t compact();

  /// Number of long-gap cuts seen so far.
  int segments_started() const noexcept { return segments_started_; }

  std::uint64_t drive_id() const noexcept { return drive_id_; }
  int vendor() const noexcept { return vendor_; }

  /// Materializes the current segment as a ProcessedDrive (for scoring
  /// through SampleBuilder / OnlinePredictor).
  ProcessedDrive snapshot() const;

  /// Appends the full incremental state (sanitizer, counters, day cursor,
  /// current segment) to a durable checkpoint's binary image. Identity
  /// (drive_id, vendor) and config are NOT serialized — the loader must
  /// construct the ingestor with the same arguments, after which a loaded
  /// ingestor continues the ingest sequence bit-identically. load_state()
  /// checks the segment and firmware lengths before allocating.
  void save_state(std::string& out) const;
  void load_state(wire::ByteReader& in);
  /// Reads the text image of checkpoints written before the binary format.
  void load_text_state(std::istream& is);

 private:
  std::uint64_t drive_id_;
  int vendor_;
  PreprocessConfig config_;
  RecordSanitizer sanitizer_;
  std::vector<ProcessedRecord> segment_;
  std::size_t real_records_ = 0;
  int segments_started_ = 0;
  std::array<double, sim::kNumWindowsEvents> w_cum_{};
  std::array<double, sim::kNumBsodCodes> b_cum_{};
  std::optional<DayIndex> last_day_;
};

}  // namespace mfpa::core
