#include "core/preprocess.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
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

SourceRecord next_source_record(const SourceRecord* prev,
                                const sim::DailyRecord& raw) {
  SourceRecord rec;
  rec.day = raw.day;
  rec.firmware_index = raw.firmware_index;
  rec.smart = raw.smart;
  if (prev != nullptr) {
    rec.w_cum = prev->w_cum;
    rec.b_cum = prev->b_cum;
  }
  const auto add = [](std::uint32_t& sum, std::uint16_t count) {
    sum = count > UINT32_MAX - sum ? UINT32_MAX : sum + count;
  };
  for (std::size_t i = 0; i < sim::kNumWindowsEvents; ++i) {
    add(rec.w_cum[i], raw.w[i]);
  }
  for (std::size_t i = 0; i < sim::kNumBsodCodes; ++i) {
    add(rec.b_cum[i], raw.b[i]);
  }
  return rec;
}

void processed_into(const CleanedRecord& record, ProcessedRecord& out) {
  out.day = record.day;
  out.synthetic = record.synthetic;
  out.firmware =
      firmware_version_string(record.vendor, record.firmware_index());
  record.with_values([&](const auto& values) {
    for (std::size_t a = 0; a < sim::kNumSmartAttrs; ++a) {
      out.smart[a] = values.smart(a);
    }
    for (std::size_t i = 0; i < sim::kNumWindowsEvents; ++i) {
      out.w_cum[i] = values.w_cum(i);
    }
    for (std::size_t i = 0; i < sim::kNumBsodCodes; ++i) {
      out.b_cum[i] = values.b_cum(i);
    }
  });
}

namespace {

/// Sanitizes `series` in delivery order (duplicate/rollback drops, value
/// repair, counter-reset re-basing) into `repaired`, whose storage is reused
/// from drive to drive.
void sanitize_into(const sim::DriveTimeSeries& series,
                   RecordSanitizer& sanitizer,
                   sim::DriveTimeSeries& repaired) {
  sanitizer.reset();
  repaired.drive_id = series.drive_id;
  repaired.vendor = series.vendor;
  repaired.model = series.model;
  repaired.failed = series.failed;
  repaired.failure_day = series.failure_day;
  repaired.records.clear();
  repaired.records.reserve(series.records.size());
  for (const auto& raw : series.records) {
    if (auto rec = sanitizer.sanitize(raw)) repaired.records.push_back(*rec);
  }
}

/// The lenient plan: sanitize into `repaired`, merge the accounting into
/// `ingest`, then run the unchanged gap policy over the now well-formed
/// sequence. A quarantined drive keeps nothing and drops every record.
DrivePlan plan_sanitized(const Preprocessor& pre,
                         const sim::DriveTimeSeries& series,
                         RecordSanitizer& sanitizer,
                         sim::DriveTimeSeries& repaired, IngestStats* ingest) {
  sanitize_into(series, sanitizer, repaired);
  const bool quarantined = sanitizer.quarantined(
      static_cast<std::size_t>(pre.config().min_records));
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
  DrivePlan plan;
  if (quarantined) {
    plan.dropped = series.records.size();
    return plan;
  }
  plan = pre.plan(repaired);
  plan.dropped += series.records.size() - repaired.records.size();
  return plan;
}

/// Where the faults of a series sanitized a second time are counted, so
/// that the process-wide mfpa_ingest_faults_total counts each fault of a
/// batch once.
obs::MetricsRegistry& recount_sink() {
  static const auto sink = obs::MetricsRegistry::create_isolated();
  return *sink;
}

}  // namespace

DrivePlan Preprocessor::plan(const sim::DriveTimeSeries& series) const {
  DrivePlan out;
  const auto& records = series.records;

  // 1. Segments end where the gap to the next record reaches drop_gap.
  // 2. Keep only the most recent segment that is long enough to be usable
  // ("remove the data with a long interval", §III-C(1)); everything before
  // it is dropped. Walk the segments from the newest.
  std::size_t hi = records.size();
  for (std::size_t i = records.size(); i-- > 0;) {
    if (i > 0 && records[i].day - records[i - 1].day < config_.drop_gap) {
      continue;  // not a segment start
    }
    if (hi - i >= static_cast<std::size_t>(config_.min_records)) {
      out.lo = i;
      out.hi = hi;
      break;
    }
    hi = i;
  }
  if (out.real_records() == 0) {  // a kept segment is never empty
    out.dropped = records.size();
    return out;
  }
  out.dropped = out.lo + (records.size() - out.hi);
  out.first_day = records[out.lo].day;
  out.last_day = records[out.hi - 1].day;

  // 3. What converting the segment yields: a fill for each missing day of a
  // gap <= fill_gap (gap_fills), and the firmware runs.
  for (std::size_t i = out.lo; i < out.hi; ++i) {
    if (i > out.lo) {
      out.filled += static_cast<std::size_t>(
          gap_fills(records[i - 1].day, records[i].day, config_.fill_gap));
    }
    if (i == out.lo ||
        records[i].firmware_index != records[i - 1].firmware_index) {
      out.firmware_changes.push_back({records[i].day, records[i].firmware_index});
    }
  }
  return out;
}

ProcessedDrive Preprocessor::convert_planned(
    const sim::DriveTimeSeries& planned, const DrivePlan& plan) const {
  ProcessedDrive out;
  out.drive_id = planned.drive_id;
  out.vendor = planned.vendor;
  out.model = planned.model;
  out.failed = planned.failed;
  out.failure_day = planned.failure_day;
  out.dropped_records = plan.dropped;
  // Convert the kept segment (the running W/B sums run across it) and
  // repair its short gaps: each real record's fills, then the record.
  out.records.reserve(plan.records());
  SourceRecord prev;
  CleanedRecord cleaned;
  for (std::size_t i = plan.lo; i < plan.hi; ++i) {
    const bool first = i == plan.lo;
    const SourceRecord rec =
        next_source_record(first ? nullptr : &prev, planned.records[i]);
    const int fills =
        first ? 0 : gap_fills(prev.day, rec.day, config_.fill_gap);
    for (int d = 1; d <= fills; ++d) {
      cleaned.set_fill(planned.vendor, prev, rec, d);
      processed_into(cleaned, out.records.emplace_back());
    }
    cleaned.set_real(planned.vendor, rec);
    processed_into(cleaned, out.records.emplace_back());
    prev = rec;
  }
  return out;
}

ProcessedDrive Preprocessor::process_drive(const sim::DriveTimeSeries& series,
                                           IngestStats* ingest) const {
  if (!config_.robustness.lenient()) {
    return convert_planned(series, plan(series));
  }
  RecordSanitizer sanitizer(config_.robustness);
  sim::DriveTimeSeries repaired;
  const DrivePlan p =
      plan_sanitized(*this, series, sanitizer, repaired, ingest);
  return convert_planned(repaired, p);
}

ProcessedDrive Preprocessor::convert(const sim::DriveTimeSeries& series,
                                     const DrivePlan& plan) const {
  if (!config_.robustness.lenient()) return convert_planned(series, plan);
  RecordSanitizer sanitizer(config_.robustness, recount_sink());
  sim::DriveTimeSeries repaired;
  sanitize_into(series, sanitizer, repaired);
  return convert_planned(repaired, plan);
}

void Preprocessor::plan_batch(std::span<const sim::DriveTimeSeries* const> batch,
                              const KeepDrive& keep, PreprocessStats* stats,
                              IngestStats* ingest) const {
  PreprocessStats local;
  IngestStats local_ingest;
  const bool lenient = config_.robustness.lenient();
  std::unordered_set<std::uint64_t> seen_ids;
  std::optional<RecordSanitizer> sanitizer;
  if (lenient) sanitizer.emplace(config_.robustness);
  sim::DriveTimeSeries repaired;
  for (std::size_t index = 0; index < batch.size(); ++index) {
    const sim::DriveTimeSeries& series = *batch[index];
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
    DrivePlan p = lenient ? plan_sanitized(*this, series, *sanitizer,
                                           repaired, &local_ingest)
                          : plan(series);
    local.records_dropped += p.dropped;
    local.records_filled += p.filled;
    if (p.real_records() < static_cast<std::size_t>(config_.min_records)) {
      continue;  // unusable drive (like F3 in the paper's Fig. 6)
    }
    local.records_out += p.records();
    ++local.drives_out;
    keep(index, lenient ? repaired : series, std::move(p));
  }
  if (stats != nullptr) *stats = local;
  if (ingest != nullptr) {
    ingest->merge(local_ingest);
  }
}

std::vector<ProcessedDrive> Preprocessor::process(
    const std::vector<sim::DriveTimeSeries>& batch,
    PreprocessStats* stats, IngestStats* ingest) const {
  std::vector<const sim::DriveTimeSeries*> series;
  series.reserve(batch.size());
  for (const auto& s : batch) series.push_back(&s);
  std::vector<ProcessedDrive> out;
  out.reserve(batch.size());
  plan_batch(
      series,
      [&](std::size_t, const sim::DriveTimeSeries& planned, DrivePlan plan) {
        out.push_back(convert_planned(planned, plan));
      },
      stats, ingest);
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
