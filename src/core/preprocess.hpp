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
#include <type_traits>
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

/// One real record of a segment at the widths it was uploaded in (SMART
/// values as float32, the firmware index), with the segment's running
/// WindowsEvent/BSOD sums through it. Each sum adds uint16 daily counts,
/// so a ProcessedRecord's cumulative doubles are these integers exactly;
/// a sum stops at 2^32 - 1, which only 65,537 days of saturated daily
/// counts reach. The serving store keeps these records.
struct SourceRecord {
  DayIndex day = 0;
  std::uint8_t firmware_index = 0;
  std::array<float, sim::kNumSmartAttrs> smart{};
  std::array<std::uint32_t, sim::kNumWindowsEvents> w_cum{};
  std::array<std::uint32_t, sim::kNumBsodCodes> b_cum{};
};

/// `raw` as the next real record of a segment whose newest real record is
/// `prev` (null for the segment's first): its running sums are prev's plus
/// raw's daily counts. The one definition of the running sums.
SourceRecord next_source_record(const SourceRecord* prev,
                                const sim::DailyRecord& raw);

/// Gap fills between consecutive real records of a segment on `prev_day`
/// and `next_day`: one per missing day when they are 2..fill_gap days
/// apart, else none.
inline int gap_fills(DayIndex prev_day, DayIndex next_day,
                     int fill_gap) noexcept {
  const int gap = next_day - prev_day;
  return gap >= 2 && gap <= fill_gap ? gap - 1 : 0;
}

/// A real record's values: its own, widened to double. `Record` is a
/// SourceRecord, or a ProcessedRecord, which holds the doubles already.
template <typename Record>
struct RealValues {
  const Record& record;
  double smart(std::size_t a) const noexcept { return record.smart[a]; }
  double w_cum(std::size_t i) const noexcept { return record.w_cum[i]; }
  double b_cum(std::size_t i) const noexcept { return record.b_cum[i]; }
};

/// A gap fill's values: the interpolation p + t·(c − p) between the
/// previous real record `from` and the next one `to`, t = d / gap for the
/// fill d days into a gap of `gap` days.
struct FillValues {
  const SourceRecord& from;
  const SourceRecord& to;
  double t;
  double smart(std::size_t a) const noexcept {
    return at(from.smart[a], to.smart[a]);
  }
  double w_cum(std::size_t i) const noexcept {
    return at(from.w_cum[i], to.w_cum[i]);
  }
  double b_cum(std::size_t i) const noexcept {
    return at(from.b_cum[i], to.b_cum[i]);
  }
  double at(double p, double c) const noexcept { return p + t * (c - p); }
};

/// One cleaned record at source widths, trivially copyable: the real
/// record `base`, or (synthetic) the gap fill `fill_day` days past `base`
/// toward the segment's next real record `next`, across a gap of
/// `fill_gap` days. A segment's cleaned records are, for each real record
/// after the first, its gap_fills() fills and then the record itself; the
/// batch Preprocessor and the serving DriveStateStore both build them with
/// set_fill / set_real. Its values are the ProcessedRecord's
/// (processed_into) doubles bit for bit.
struct CleanedRecord {
  DayIndex day = 0;
  int vendor = 0;          ///< vendor index into sim::vendor_catalog()
  int fill_day = 0;        ///< synthetic only: days past base
  int fill_gap = 0;        ///< synthetic only: days from base to next
  bool synthetic = false;  ///< inserted by gap filling
  SourceRecord base;
  SourceRecord next;       ///< synthetic only

  /// Makes this the real record `rec` of a drive of `vendor_index`.
  void set_real(int vendor_index, const SourceRecord& rec) noexcept {
    day = rec.day;
    vendor = vendor_index;
    synthetic = false;
    base = rec;
  }

  /// Makes this the gap fill `d` days past `prev` toward the segment's
  /// next real record `to`.
  void set_fill(int vendor_index, const SourceRecord& prev,
                const SourceRecord& to, int d) noexcept {
    day = prev.day + d;
    vendor = vendor_index;
    fill_day = d;
    fill_gap = to.day - prev.day;
    synthetic = true;
    base = prev;
    next = to;
  }

  /// The record's firmware: a fill takes the previous real record's.
  std::uint8_t firmware_index() const noexcept { return base.firmware_index; }

  /// Calls `f` with the record's values, a RealValues or a FillValues.
  template <typename F>
  void with_values(F&& f) const {
    if (synthetic) {
      const double t =
          static_cast<double>(fill_day) / static_cast<double>(fill_gap);
      f(FillValues{base, next, t});
    } else {
      f(RealValues<SourceRecord>{base});
    }
  }
};
static_assert(std::is_trivially_copyable_v<CleanedRecord>);

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

/// Writes the batch form of a cleaned record into `out`: its doubles, and
/// the firmware version string in place of the index.
void processed_into(const CleanedRecord& record, ProcessedRecord& out);

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
