#include "core/preprocess.hpp"

#include <algorithm>
#include <unordered_set>

#include "core/robust_ingest.hpp"
#include "sim/catalog.hpp"

namespace mfpa::core {

std::string firmware_version_string(int vendor, unsigned firmware_index) {
  const auto& cfg = sim::vendor_catalog().at(static_cast<std::size_t>(vendor));
  if (firmware_index < cfg.firmware.size()) {
    return cfg.firmware[firmware_index].version;
  }
  // Post-catalog release (drift): synthesize the next name in the vendor's
  // chronological convention.
  return cfg.name + "_F_" + std::to_string(firmware_index + 1);
}

void append_processed(std::vector<ProcessedRecord>& segment,
                      const sim::DailyRecord& raw, int vendor, int fill_gap,
                      std::array<double, sim::kNumWindowsEvents>& w_cum,
                      std::array<double, sim::kNumBsodCodes>& b_cum) {
  ProcessedRecord rec;
  rec.day = raw.day;
  for (std::size_t a = 0; a < sim::kNumSmartAttrs; ++a) {
    rec.smart[a] = static_cast<double>(raw.smart[a]);
  }
  rec.firmware = firmware_version_string(vendor, raw.firmware_index);
  for (std::size_t i = 0; i < sim::kNumWindowsEvents; ++i) {
    w_cum[i] += static_cast<double>(raw.w[i]);
  }
  for (std::size_t i = 0; i < sim::kNumBsodCodes; ++i) {
    b_cum[i] += static_cast<double>(raw.b[i]);
  }
  rec.w_cum = w_cum;
  rec.b_cum = b_cum;

  const int gap = segment.empty() ? 1 : raw.day - segment.back().day;
  if (gap >= 2 && gap <= fill_gap) {
    const ProcessedRecord prev = segment.back();  // copy: the loop reallocates
    for (int d = 1; d < gap; ++d) {
      const double t = static_cast<double>(d) / static_cast<double>(gap);
      ProcessedRecord fill;
      fill.day = prev.day + d;
      fill.synthetic = true;
      fill.firmware = prev.firmware;
      for (std::size_t a = 0; a < sim::kNumSmartAttrs; ++a) {
        fill.smart[a] = prev.smart[a] + t * (rec.smart[a] - prev.smart[a]);
      }
      for (std::size_t w = 0; w < sim::kNumWindowsEvents; ++w) {
        fill.w_cum[w] = prev.w_cum[w] + t * (rec.w_cum[w] - prev.w_cum[w]);
      }
      for (std::size_t b = 0; b < sim::kNumBsodCodes; ++b) {
        fill.b_cum[b] = prev.b_cum[b] + t * (rec.b_cum[b] - prev.b_cum[b]);
      }
      segment.push_back(std::move(fill));
    }
  }
  segment.push_back(std::move(rec));
}

ProcessedDrive Preprocessor::process_drive(const sim::DriveTimeSeries& series,
                                           IngestStats* ingest) const {
  if (!config_.robustness.lenient()) return process_well_formed(series);

  // Lenient path: sanitize in delivery order (duplicate/rollback drops,
  // value repair, counter-reset re-basing), then run the unchanged gap
  // policy over the now well-formed sequence.
  RecordSanitizer sanitizer(config_.robustness);
  sim::DriveTimeSeries repaired;
  repaired.drive_id = series.drive_id;
  repaired.vendor = series.vendor;
  repaired.model = series.model;
  repaired.failed = series.failed;
  repaired.failure_day = series.failure_day;
  repaired.records.reserve(series.records.size());
  for (const auto& raw : series.records) {
    if (auto rec = sanitizer.sanitize(raw)) {
      repaired.records.push_back(*rec);
    }
  }
  const bool quarantined =
      sanitizer.quarantined(static_cast<std::size_t>(config_.min_records));
  if (ingest != nullptr) {
    ingest->merge(sanitizer.stats());
    if (quarantined) {
      ++ingest->drives_quarantined;
      ingest->note("drive " + std::to_string(series.drive_id) +
                       ": quarantined (" +
                       std::to_string(sanitizer.stats().rows_dropped) + "/" +
                       std::to_string(sanitizer.stats().rows_read) +
                       " records dropped)");
    }
  }
  if (quarantined) {
    ProcessedDrive out;
    out.drive_id = series.drive_id;
    out.vendor = series.vendor;
    out.model = series.model;
    out.failed = series.failed;
    out.failure_day = series.failure_day;
    out.dropped_records = series.records.size();
    return out;
  }
  ProcessedDrive out = process_well_formed(repaired);
  out.dropped_records += series.records.size() - repaired.records.size();
  return out;
}

ProcessedDrive Preprocessor::process_well_formed(
    const sim::DriveTimeSeries& series) const {
  ProcessedDrive out;
  out.drive_id = series.drive_id;
  out.vendor = series.vendor;
  out.model = series.model;
  out.failed = series.failed;
  out.failure_day = series.failure_day;
  if (series.records.empty()) return out;

  // 1. Split into segments at long gaps.
  std::vector<std::pair<std::size_t, std::size_t>> segments;  // [lo, hi)
  std::size_t lo = 0;
  for (std::size_t i = 1; i < series.records.size(); ++i) {
    const int gap = series.records[i].day - series.records[i - 1].day;
    if (gap >= config_.drop_gap) {
      segments.emplace_back(lo, i);
      lo = i;
    }
  }
  segments.emplace_back(lo, series.records.size());

  // 2. Keep only the most recent segment that is long enough to be usable
  // ("remove the data with a long interval", §III-C(1)); everything before
  // it is dropped. Pick the last segment meeting the minimum length.
  std::size_t chosen = segments.size();
  for (std::size_t s = segments.size(); s-- > 0;) {
    if (segments[s].second - segments[s].first >=
        static_cast<std::size_t>(config_.min_records)) {
      chosen = s;
      break;
    }
  }
  if (chosen == segments.size()) {
    out.dropped_records = series.records.size();
    return out;
  }
  out.dropped_records = segments[chosen].first +
                        (series.records.size() - segments[chosen].second);

  // 3. Convert the kept segment (cumulative W/B counters run across it)
  // and repair its short gaps.
  std::array<double, sim::kNumWindowsEvents> w_cum{};
  std::array<double, sim::kNumBsodCodes> b_cum{};
  const auto [seg_lo, seg_hi] = segments[chosen];
  for (std::size_t i = seg_lo; i < seg_hi; ++i) {
    append_processed(out.records, series.records[i], series.vendor,
                     config_.fill_gap, w_cum, b_cum);
  }
  return out;
}

std::vector<ProcessedDrive> Preprocessor::process(
    const std::vector<sim::DriveTimeSeries>& batch,
    PreprocessStats* stats, IngestStats* ingest) const {
  PreprocessStats local;
  IngestStats local_ingest;
  const bool lenient = config_.robustness.lenient();
  std::unordered_set<std::uint64_t> seen_ids;
  std::vector<ProcessedDrive> out;
  out.reserve(batch.size());
  for (const auto& series : batch) {
    ++local.drives_in;
    local.records_in += series.records.size();
    if (lenient && !seen_ids.insert(series.drive_id).second) {
      // A repeated drive id in one batch is an upload-path bug (or an
      // injected fault); the first occurrence wins.
      ++local_ingest.duplicate_drives;
      local_ingest.rows_read += series.records.size();
      local_ingest.rows_dropped += series.records.size();
      local_ingest.note("drive " + std::to_string(series.drive_id) +
                            ": duplicate series dropped");
      local.records_dropped += series.records.size();
      continue;
    }
    // Long-gap accounting for the discontinuity experiment.
    for (std::size_t i = 1; i < series.records.size(); ++i) {
      if (series.records[i].day - series.records[i - 1].day >=
          config_.drop_gap) {
        ++local.long_gaps;
      }
    }
    ProcessedDrive drive = process_drive(series, &local_ingest);
    local.records_dropped += drive.dropped_records;
    std::size_t real_records = 0;
    for (const auto& r : drive.records) {
      r.synthetic ? ++local.records_filled : ++real_records;
    }
    if (real_records < static_cast<std::size_t>(config_.min_records)) {
      continue;  // unusable drive (like F3 in the paper's Fig. 6)
    }
    local.records_out += drive.records.size();
    ++local.drives_out;
    out.push_back(std::move(drive));
  }
  if (stats != nullptr) *stats = local;
  if (ingest != nullptr) {
    ingest->merge(local_ingest);
  }
  return out;
}

data::LabelEncoder Preprocessor::fit_firmware_encoder(
    const std::vector<ProcessedDrive>& drives) {
  data::LabelEncoder encoder;
  std::vector<std::string> versions;
  for (const auto& d : drives) {
    for (const auto& r : d.records) versions.push_back(r.firmware);
  }
  encoder.fit(versions);
  return encoder;
}

}  // namespace mfpa::core
