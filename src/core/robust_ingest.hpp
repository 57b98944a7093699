// Per-drive record sanitation — the graceful-degradation front half of both
// ingestion paths. `RecordSanitizer` is a small state machine fed a drive's
// raw records *in delivery order*; it decides, identically for the batch
// `Preprocessor` and the serving tier's `DriveStateStore`, whether each
// record is kept (possibly repaired) or dropped with a recorded reason:
//
//  * duplicate day (upload retry)            -> dropped, idempotent
//  * clock rollback (day earlier than seen)  -> dropped
//  * NaN / negative / saturated SMART field  -> repaired to last good value
//  * saturated daily W/B count               -> repaired to zero
//  * monotone SMART counter reset            -> re-based (effective = raw +
//                                               accumulated pre-reset total)
//
// Because both consumers run the same sanitizer in front of their existing
// (well-formed-input) logic, the store's rows equal the batch path's
// records on corrupted input too (tests/serve/test_store_ingest.cpp).
//
// Only lenient ingestion builds a sanitizer. Its strict mode performs only
// the day-order check and throws std::invalid_argument.
#pragma once

#include <array>
#include <optional>

#include "common/robustness.hpp"
#include "obs/metrics.hpp"
#include "sim/catalog.hpp"
#include "sim/telemetry.hpp"

namespace mfpa::core {

class RecordSanitizer {
 public:
  explicit RecordSanitizer(RobustnessConfig config = {});
  /// Counts the faults it sees into `metrics` instead of obs::registry().
  RecordSanitizer(RobustnessConfig config, obs::MetricsRegistry& metrics);

  const RobustnessConfig& config() const noexcept { return config_; }

  /// Sanitizes the next delivered record. Returns the (possibly repaired)
  /// record to process, or std::nullopt when it must be dropped. Strict
  /// mode throws std::invalid_argument on non-increasing days instead.
  std::optional<sim::DailyRecord> sanitize(const sim::DailyRecord& raw);

  /// Accounting so far: rows_read counts delivered records, rows_dropped /
  /// rows_repaired and the per-cause counters explain what happened.
  const IngestStats& stats() const noexcept { return stats_; }

  /// Records delivered so far (kept + dropped).
  std::size_t delivered() const noexcept { return stats_.rows_read; }

  /// True when the bad-row fraction exceeds the configured quarantine
  /// threshold (only ever true in lenient mode, and only once at least
  /// `min_delivered` records were delivered).
  bool quarantined(std::size_t min_delivered) const noexcept;

  /// Resets all state for a new drive.
  void reset();

  /// Appends the full sanitizer state (accounting, day-order cursor,
  /// re-basing offsets, last-good values) to a durable checkpoint's binary
  /// image; a loaded sanitizer continues the delivery sequence
  /// bit-identically. Floats and doubles are stored as their IEEE-754 bits;
  /// integrity is the enclosing checkpoint's checksum.
  void save_state(std::string& out) const;
  void load_state(wire::ByteReader& in);

 private:
  RobustnessConfig config_;
  IngestStats stats_;
  // mfpa_ingest_faults_total{cause}: each fault as it is seen, summed over
  // every sanitizer in the process. IngestStats stays the per-drive/per-run
  // accounting.
  struct Metrics {
    obs::Counter* duplicate_days = nullptr;
    obs::Counter* clock_rollbacks = nullptr;
    obs::Counter* counter_resets = nullptr;
    obs::Counter* values_repaired = nullptr;
  };
  Metrics metrics_;
  std::optional<DayIndex> last_day_;
  // Counter-reset re-basing state, indexed over sim::kMonotoneCounters.
  std::array<float, sim::kMonotoneCounters.size()> last_raw_{};
  std::array<double, sim::kMonotoneCounters.size()> rebase_offset_{};
  // Last good (finite, non-negative, unsaturated) value per SMART attr.
  std::array<float, sim::kNumSmartAttrs> last_good_{};
};

}  // namespace mfpa::core
