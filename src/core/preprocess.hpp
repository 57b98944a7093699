// Preprocessing of raw discontinuous CSS telemetry (paper §III-C(1)):
//
//  * gap handling — record sequences are cut where the interval between
//    adjacent observations is >= `drop_gap` days; only the most recent
//    segment with at least `min_records` observations is kept (data with a
//    long interval "cannot be used for subsequent model training"); inside
//    the kept segment, gaps of <= `fill_gap` days are repaired by inserting
//    synthetic records interpolating the adjacent observations;
//  * cumulative W/B — daily WindowsEvent/BSOD counts are accumulated per
//    drive because daily values are too sparse to show trends;
//  * firmware label encoding — the firmware version character string is
//    label-encoded (unseen versions map to the encoder's unknown code).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/date.hpp"
#include "common/robustness.hpp"
#include "data/label_encoder.hpp"
#include "sim/telemetry.hpp"

namespace mfpa::core {

struct PreprocessConfig {
  int drop_gap = 10;      ///< cut sequences at gaps >= this many days
  int fill_gap = 3;       ///< interpolate gaps <= this many days
  int min_records = 3;    ///< drop drives with fewer usable records

  /// Dirty-input policy. Strict (default) assumes well-formed series (the
  /// historical behavior); lenient runs every record through a
  /// RecordSanitizer (core/robust_ingest.hpp) — dropping duplicate days and
  /// clock rollbacks, repairing bad values, re-basing counter resets — and
  /// quarantines drives whose bad-row fraction exceeds the configured limit.
  RobustnessConfig robustness;
};

/// One cleaned observation with accumulated W/B counters.
struct ProcessedRecord {
  DayIndex day = 0;
  bool synthetic = false;  ///< inserted by gap filling
  std::array<double, sim::kNumSmartAttrs> smart{};
  std::string firmware;    ///< vendor firmware version string
  std::array<double, sim::kNumWindowsEvents> w_cum{};
  std::array<double, sim::kNumBsodCodes> b_cum{};
};

/// A drive's cleaned history. `failed`/`failure_day` carry the simulator's
/// ground truth for *evaluation only* — the pipeline itself labels failures
/// from trouble tickets (see FailureTimeIdentifier).
struct ProcessedDrive {
  std::uint64_t drive_id = 0;
  int vendor = 0;
  int model = 0;
  bool failed = false;
  DayIndex failure_day = -1;
  std::vector<ProcessedRecord> records;  ///< ascending by day
  std::size_t dropped_records = 0;       ///< removed by the gap policy
};

/// Summary counters of one preprocessing run (reported in the overhead and
/// discontinuity experiments).
struct PreprocessStats {
  std::size_t drives_in = 0;
  std::size_t drives_out = 0;
  std::size_t records_in = 0;
  std::size_t records_out = 0;
  std::size_t records_filled = 0;
  std::size_t records_dropped = 0;
  std::size_t long_gaps = 0;   ///< gaps >= drop_gap encountered

  bool operator==(const PreprocessStats&) const = default;
};

/// The first record of a firmware run inside a kept segment: the segment's
/// first record, then every record whose version differs from the previous
/// one. Gap fills copy the previous record's firmware, so these are the only
/// cleaned records on which a version can first appear.
struct FirmwareChange {
  DayIndex day = 0;
  unsigned firmware_index = 0;
};

/// The gap policy's decision for one drive, made from its days alone: which
/// segment is kept and what converting it yields. `lo` / `hi` index the
/// series the plan was made on (in lenient mode, its sanitized copy); the
/// counts are what process_drive reports for the drive.
struct DrivePlan {
  std::size_t lo = 0;         ///< kept segment [lo, hi); empty when none is
  std::size_t hi = 0;
  std::size_t filled = 0;     ///< gap-fill records the segment gets
  std::size_t dropped = 0;    ///< = ProcessedDrive::dropped_records
  DayIndex first_day = 0;     ///< days of the segment's first and last
  DayIndex last_day = 0;      ///< records (valid when it is not empty)
  std::vector<FirmwareChange> firmware_changes;

  std::size_t real_records() const noexcept { return hi - lo; }
  /// Cleaned records: the segment's own plus its gap fills.
  std::size_t records() const noexcept { return hi - lo + filled; }
};

/// Converts the firmware index of a raw record into the vendor's version
/// string (out-of-catalog indices — post-training releases — get synthetic
/// consecutive names).
std::string firmware_version_string(int vendor, unsigned firmware_index);

/// Appends the cleaned form of `raw`, the next record of one segment, to
/// `segment`: first the short-gap fill — when `raw` follows segment.back()
/// by 2..fill_gap days, one synthetic record per missing day, SMART and
/// cumulative W/B interpolated linearly toward `raw` — then `raw` itself,
/// its cumulative W/B being segment.back()'s (zero for an empty segment)
/// plus its daily counts. segment.back() is always the newest real record,
/// so it carries the segment's running sums. The one record conversion of
/// the batch Preprocessor and the serving tier's DriveStateStore, so both
/// produce identical records.
void append_processed(std::vector<ProcessedRecord>& segment,
                      const sim::DailyRecord& raw, int vendor, int fill_gap);

class Preprocessor {
 public:
  explicit Preprocessor(PreprocessConfig config = {}) : config_(config) {}

  const PreprocessConfig& config() const noexcept { return config_; }

  /// The gap policy over a well-formed series: cut at gaps >= drop_gap,
  /// keep the most recent segment with at least min_records records, and
  /// count the fills its gaps <= fill_gap get. Converts nothing.
  DrivePlan plan(const sim::DriveTimeSeries& series) const;

  /// Cleans one drive's raw series (gap policy + cumulative counters). In
  /// lenient mode the series is sanitized first (records in delivery order);
  /// a quarantined drive comes back with no records and `dropped_records`
  /// covering the whole series. Sanitation accounting is merged into
  /// `ingest` when non-null.
  ProcessedDrive process_drive(const sim::DriveTimeSeries& series,
                               IngestStats* ingest = nullptr) const;

  /// Cleans a whole telemetry batch; drops drives with too few usable
  /// records (and, leniently, repeated drive ids and quarantined drives);
  /// fills `stats` / `ingest` if non-null.
  std::vector<ProcessedDrive> process(
      const std::vector<sim::DriveTimeSeries>& batch,
      PreprocessStats* stats = nullptr, IngestStats* ingest = nullptr) const;

  /// Called with the batch index of a drive process() keeps, the series its
  /// plan indexes (the raw series, or in lenient mode a sanitized copy valid
  /// only during the call) and the plan.
  using KeepDrive = std::function<void(
      std::size_t index, const sim::DriveTimeSeries& planned, DrivePlan plan)>;

  /// process() without the conversion: the same batch policy and the same
  /// `stats` / `ingest` accounting, with each kept drive handed to `keep`
  /// in batch order.
  void plan_batch(std::span<const sim::DriveTimeSeries* const> batch,
                  const KeepDrive& keep, PreprocessStats* stats = nullptr,
                  IngestStats* ingest = nullptr) const;

  /// Converts a drive plan_batch kept, from its raw series and that plan.
  /// Lenient mode sanitizes the series again; plan_batch already counted
  /// its faults, so they are not counted a second time.
  ProcessedDrive convert(const sim::DriveTimeSeries& series,
                         const DrivePlan& plan) const;

  /// Fits a firmware label encoder over every record of `drives`.
  static data::LabelEncoder fit_firmware_encoder(
      const std::vector<ProcessedDrive>& drives);

 private:
  PreprocessConfig config_;

  /// Converts the planned segment of the series the plan was made on.
  ProcessedDrive convert_planned(const sim::DriveTimeSeries& planned,
                                 const DrivePlan& plan) const;
};

}  // namespace mfpa::core
