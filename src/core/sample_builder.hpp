// Sample construction (paper §III-C(3)).
//
// Positive samples: records of ticketed drives within `positive_window` days
// before the identified failure day (optionally shifted back by a lookahead
// distance for the Fig. 19 experiment). Negative samples: records of healthy
// drives, sampled at `neg_per_pos` per positive. Supports flat rows (one
// observation) and sequence rows (the last `seq_len` observations flattened,
// for CNN_LSTM).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/failure_time.hpp"
#include "core/feature_groups.hpp"
#include "core/preprocess.hpp"
#include "data/dataset.hpp"
#include "data/label_encoder.hpp"

namespace mfpa::core {

struct SampleConfig {
  FeatureGroup group = FeatureGroup::kSFWB;
  int positive_window = 7;   ///< days before the labeled failure day
  int lookahead = 0;         ///< extra distance between sample and failure
  double neg_per_pos = 3.0;  ///< negative:positive sampling ratio (0 = all)
  bool sequences = false;    ///< build seq_len x F rows instead of flat rows
  int seq_len = 5;
  /// Appends rate-of-change columns ("d<k>_<name>"): each feature's delta
  /// against the drive's newest record at least `delta_days` older (zero
  /// when no such record exists). An extension beyond the paper — counters
  /// accelerating matters as much as their level. Flat rows only.
  bool include_deltas = false;
  int delta_days = 7;
  std::uint64_t seed = 7;
};

/// One drive as sample selection sees it. A failed drive (`failure` set)
/// yields the positives of its window and must come converted. A healthy
/// drive yields `records` negative candidates and, unless `drive` already
/// holds it, is converted only when a draw lands in it.
struct SampleSource {
  const ProcessedDrive* drive = nullptr;        ///< cleaned history, if held
  std::size_t records = 0;                      ///< its cleaned-record count
  const IdentifiedFailure* failure = nullptr;   ///< null: a healthy drive
};

class SampleBuilder {
 public:
  /// `fw_encoder` must outlive the builder; it supplies the firmware code
  /// for groups containing F (may be null for groups without F). The
  /// builder reads its codes once, here, into the firmware code table.
  SampleBuilder(SampleConfig config, const data::LabelEncoder* fw_encoder);

  const SampleConfig& config() const noexcept { return config_; }

  /// Writes one record's features under the configured group into `out`,
  /// which must hold exactly feature_count_of(group) doubles. Training
  /// writes batch records; serving fills its batch matrix in place from
  /// source-width records, whose firmware code comes from a (vendor,
  /// firmware index) table built once from the encoder. Both write the
  /// same doubles for the same cleaned record.
  void features_into(const ProcessedRecord& record,
                     std::span<double> out) const;
  void features_into(const CleanedRecord& record,
                     std::span<double> out) const;

  /// Feature vector of one record under the configured group (the
  /// allocating form of features_into).
  std::vector<double> features_of(const ProcessedRecord& record) const;
  std::vector<double> features_of(const CleanedRecord& record) const;

  /// The model row of `drive.records[record_index]`: flat, flat plus deltas
  /// against the drive's older records, or the seq_len records ending there
  /// (padded by repeating the oldest). Training and online scoring share it.
  std::vector<double> row(const ProcessedDrive& drive,
                          std::size_t record_index) const;

  /// Feature names of the built dataset (flat or sequence-expanded).
  std::vector<std::string> feature_names() const;

  /// Builds the labeled dataset. `failures` maps drive id -> identified
  /// failure; drives present in the map yield positives (within the window),
  /// all other drives yield negative candidates.
  data::Dataset build(
      const std::vector<ProcessedDrive>& drives,
      const std::unordered_map<std::uint64_t, IdentifiedFailure>& failures)
      const;

  /// Positives the failed drives of `drives` yield.
  std::size_t positive_count(std::span<const SampleSource> drives) const;

  /// The sample selection behind build(). Rows are written in place into a
  /// dataset sized up front: first every failed drive's positives in drive
  /// order, then the negatives. Those are `neg_per_pos` per positive, drawn
  /// without replacement over the healthy drives' records enumerated in
  /// drive order (all of them when neg_per_pos <= 0 or there is no
  /// positive), in that order. `convert(d)` supplies the cleaned history of
  /// a drive without one when a draw lands in it; drives are converted one
  /// at a time.
  data::Dataset select(
      std::span<const SampleSource> drives,
      const std::function<ProcessedDrive(std::size_t)>& convert) const;

  /// Builds *positive-only* samples whose distance to the drive's true
  /// failure day is exactly in [distance_lo, distance_hi] — used by the
  /// lookahead experiment (Fig. 19), which probes a fixed model at varying
  /// horizons. Uses ground-truth failure days from the ProcessedDrive.
  data::Dataset build_positives_at_distance(
      const std::vector<ProcessedDrive>& drives, int distance_lo,
      int distance_hi) const;

 private:
  /// Whether `day` lies in the positive window of a drive labeled `failure`.
  bool in_positive_window(DayIndex day,
                          const IdentifiedFailure& failure) const noexcept;
  /// The one column order (SMART, F, the W subset, B) of both row writers;
  /// `values` gives smart(a), w_cum(i) and b_cum(i).
  template <typename Values>
  void write_row(const Values& values, double firmware_code,
                 std::span<double> out) const;

  SampleConfig config_;
  const data::LabelEncoder* fw_encoder_;
  // Resolved column selectors.
  bool use_smart_ = false;
  bool use_firmware_ = false;
  bool use_bsod_ = false;
  std::vector<std::size_t> w_indices_;
  /// Groups with F: the encoder's code of every (vendor, firmware index),
  /// at vendor * 256 + index.
  std::vector<double> firmware_codes_;
};

}  // namespace mfpa::core
