#include "core/sample_builder.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>

#include "common/rng.hpp"
#include "sim/catalog.hpp"

namespace mfpa::core {
namespace {

/// Parses "W_11" -> tracked index via the catalog.
std::size_t w_index_of(const std::string& name) {
  return sim::windows_event_index(std::stoi(name.substr(2)));
}

/// Firmware indices per vendor: every value of a uint8 index.
constexpr std::size_t kFirmwareIndices = std::size_t{UINT8_MAX} + 1;

}  // namespace

SampleBuilder::SampleBuilder(SampleConfig config,
                             const data::LabelEncoder* fw_encoder)
    : config_(config), fw_encoder_(fw_encoder) {
  const FeatureGroupParts parts = feature_parts_of(config_.group);
  use_smart_ = parts.smart;
  use_firmware_ = parts.firmware;
  use_bsod_ = parts.bsod;
  if (use_firmware_ && fw_encoder_ == nullptr) {
    throw std::invalid_argument(
        "SampleBuilder: firmware encoder required for groups containing F");
  }
  if (use_firmware_) {
    firmware_codes_.reserve(sim::kNumVendors * kFirmwareIndices);
    for (std::size_t v = 0; v < sim::kNumVendors; ++v) {
      for (unsigned i = 0; i < kFirmwareIndices; ++i) {
        firmware_codes_.push_back(fw_encoder_->transform_one(
            firmware_version_string(static_cast<int>(v), i)));
      }
    }
  }
  if (parts.windows) {
    for (const auto& name : windows_feature_names()) {
      w_indices_.push_back(w_index_of(name));
    }
  }
  if (config_.positive_window < 1) {
    throw std::invalid_argument("SampleBuilder: positive_window must be >= 1");
  }
  if (config_.sequences && config_.seq_len < 1) {
    throw std::invalid_argument("SampleBuilder: seq_len must be >= 1");
  }
  if (config_.include_deltas && config_.sequences) {
    throw std::invalid_argument(
        "SampleBuilder: deltas and sequences are mutually exclusive");
  }
  if (config_.include_deltas && config_.delta_days < 1) {
    throw std::invalid_argument("SampleBuilder: delta_days must be >= 1");
  }
}

template <typename Values>
void SampleBuilder::write_row(const Values& values, double firmware_code,
                              std::span<double> out) const {
  assert(out.size() == feature_count_of(config_.group));
  auto it = out.begin();
  if (use_smart_) {
    for (std::size_t a = 0; a < sim::kNumSmartAttrs; ++a) {
      *it++ = values.smart(a);
    }
  }
  if (use_firmware_) *it++ = firmware_code;
  for (std::size_t w : w_indices_) *it++ = values.w_cum(w);
  if (use_bsod_) {
    for (std::size_t b = 0; b < sim::kNumBsodCodes; ++b) {
      *it++ = values.b_cum(b);
    }
  }
}

void SampleBuilder::features_into(const ProcessedRecord& record,
                                  std::span<double> out) const {
  write_row(RealValues<ProcessedRecord>{record},
            use_firmware_ ? fw_encoder_->transform_one(record.firmware) : 0.0,
            out);
}

void SampleBuilder::features_into(const CleanedRecord& record,
                                  std::span<double> out) const {
  double firmware_code = 0.0;
  if (use_firmware_) {
    // at() throws std::out_of_range for a vendor outside the catalog (a
    // negative one included), which no store emits.
    const auto vendor = static_cast<std::size_t>(record.vendor);
    firmware_code =
        firmware_codes_.at(vendor * kFirmwareIndices + record.firmware_index());
  }
  record.with_values(
      [&](const auto& values) { write_row(values, firmware_code, out); });
}

std::vector<double> SampleBuilder::features_of(
    const ProcessedRecord& record) const {
  std::vector<double> out(feature_count_of(config_.group));
  features_into(record, out);
  return out;
}

std::vector<double> SampleBuilder::features_of(
    const CleanedRecord& record) const {
  std::vector<double> out(feature_count_of(config_.group));
  features_into(record, out);
  return out;
}

std::vector<std::string> SampleBuilder::feature_names() const {
  const auto base = feature_names_of(config_.group);
  if (config_.sequences) {
    std::vector<std::string> out;
    out.reserve(base.size() * static_cast<std::size_t>(config_.seq_len));
    for (int t = 0; t < config_.seq_len; ++t) {
      const std::string prefix =
          "t-" + std::to_string(config_.seq_len - 1 - t) + "_";
      for (const auto& name : base) out.push_back(prefix + name);
    }
    return out;
  }
  if (config_.include_deltas) {
    std::vector<std::string> out = base;
    const std::string prefix = "d" + std::to_string(config_.delta_days) + "_";
    for (const auto& name : base) out.push_back(prefix + name);
    return out;
  }
  return base;
}

std::vector<double> SampleBuilder::row(const ProcessedDrive& drive,
                                       std::size_t record_index) const {
  if (!config_.sequences) {
    std::vector<double> flat = features_of(drive.records[record_index]);
    if (config_.include_deltas) {
      // Newest record at least delta_days older than this one.
      const DayIndex anchor_day =
          drive.records[record_index].day - config_.delta_days;
      std::vector<double> past(flat.size(), 0.0);
      bool found = false;
      for (std::size_t r = record_index; r-- > 0;) {
        if (drive.records[r].day <= anchor_day) {
          past = features_of(drive.records[r]);
          found = true;
          break;
        }
      }
      const std::size_t base = flat.size();
      flat.resize(2 * base, 0.0);
      if (found) {
        for (std::size_t c = 0; c < base; ++c) {
          flat[base + c] = flat[c] - past[c];
        }
      }
    }
    return flat;
  }
  // Sequence row: the seq_len records ending at record_index, earliest
  // first, padded by repeating the oldest available record.
  const int T = config_.seq_len;
  const std::size_t width = feature_count_of(config_.group);
  std::vector<double> out(width * static_cast<std::size_t>(T));
  std::span<double> step(out);
  for (int t = T - 1; t >= 0; --t) {
    const std::ptrdiff_t idx =
        static_cast<std::ptrdiff_t>(record_index) - t;
    const std::size_t clamped =
        idx < 0 ? 0 : static_cast<std::size_t>(idx);
    features_into(drive.records[clamped], step.first(width));
    step = step.subspan(width);
  }
  return out;
}

bool SampleBuilder::in_positive_window(
    DayIndex day, const IdentifiedFailure& failure) const noexcept {
  const DayIndex hi = failure.labeled_failure_day - config_.lookahead;
  const DayIndex lo = hi - config_.positive_window + 1;
  return day >= lo && day <= hi;
}

data::Dataset SampleBuilder::build(
    const std::vector<ProcessedDrive>& drives,
    const std::unordered_map<std::uint64_t, IdentifiedFailure>& failures)
    const {
  std::vector<SampleSource> sources;
  sources.reserve(drives.size());
  for (const ProcessedDrive& drive : drives) {
    const auto it = failures.find(drive.drive_id);
    sources.push_back({&drive, drive.records.size(),
                       it == failures.end() ? nullptr : &it->second});
  }
  return select(sources, {});
}

std::size_t SampleBuilder::positive_count(
    std::span<const SampleSource> drives) const {
  std::size_t n = 0;
  for (const SampleSource& src : drives) {
    if (src.failure == nullptr) continue;
    if (src.drive == nullptr) {
      throw std::invalid_argument(
          "SampleBuilder: a failed drive must come converted");
    }
    for (const ProcessedRecord& rec : src.drive->records) {
      if (in_positive_window(rec.day, *src.failure)) ++n;
    }
  }
  return n;
}

data::Dataset SampleBuilder::select(
    std::span<const SampleSource> drives,
    const std::function<ProcessedDrive(std::size_t)>& convert) const {
  const std::size_t n_pos = positive_count(drives);
  std::size_t n_candidates = 0;
  for (const SampleSource& src : drives) {
    if (src.failure == nullptr) n_candidates += src.records;
  }

  // Negative draws: candidate c is record c - offset of the healthy drive
  // whose records start at running offset `offset`.
  std::vector<std::size_t> chosen;
  if (config_.neg_per_pos > 0.0 && n_pos > 0) {
    const auto want = std::min<std::size_t>(
        n_candidates,
        static_cast<std::size_t>(static_cast<double>(n_pos) *
                                     config_.neg_per_pos +
                                 0.5));
    Rng rng(config_.seed);
    chosen = rng.sample_without_replacement(n_candidates, want);
    std::sort(chosen.begin(), chosen.end());
  } else {
    chosen.resize(n_candidates);
    for (std::size_t i = 0; i < chosen.size(); ++i) chosen[i] = i;
  }

  data::Dataset ds;
  ds.feature_names = feature_names();
  const std::size_t rows = n_pos + chosen.size();
  ds.X = data::Matrix(rows, ds.feature_names.size());
  ds.y.assign(rows, 0);
  std::fill_n(ds.y.begin(), n_pos, 1);
  ds.meta.resize(rows);
  std::size_t next_row = 0;
  const auto write = [&](const ProcessedDrive& drive, std::size_t r) {
    const std::vector<double> values = row(drive, r);
    std::copy(values.begin(), values.end(), ds.X.row(next_row).begin());
    ds.meta[next_row++] = {drive.drive_id, drive.records[r].day, drive.vendor};
  };

  for (const SampleSource& src : drives) {
    if (src.failure == nullptr) continue;
    for (std::size_t r = 0; r < src.drive->records.size(); ++r) {
      if (in_positive_window(src.drive->records[r].day, *src.failure)) {
        write(*src.drive, r);
      }
    }
  }
  auto next = chosen.begin();
  std::size_t offset = 0;
  for (std::size_t d = 0; d < drives.size() && next != chosen.end(); ++d) {
    const SampleSource& src = drives[d];
    if (src.failure != nullptr) continue;
    const std::size_t end = offset + src.records;
    if (*next < end) {
      ProcessedDrive converted;
      const ProcessedDrive* drive = src.drive;
      if (drive == nullptr) {
        converted = convert(d);
        drive = &converted;
      }
      for (; next != chosen.end() && *next < end; ++next) {
        write(*drive, *next - offset);
      }
    }
    offset = end;
  }
  ds.check_invariants();
  return ds;
}

data::Dataset SampleBuilder::build_positives_at_distance(
    const std::vector<ProcessedDrive>& drives, int distance_lo,
    int distance_hi) const {
  if (distance_lo > distance_hi) {
    throw std::invalid_argument(
        "build_positives_at_distance: lo must be <= hi");
  }
  data::Dataset ds;
  ds.feature_names = feature_names();
  for (const ProcessedDrive& drive : drives) {
    if (!drive.failed) continue;
    for (std::size_t r = 0; r < drive.records.size(); ++r) {
      const int dist = drive.failure_day - drive.records[r].day;
      if (dist < distance_lo || dist > distance_hi) continue;
      ds.add(row(drive, r), 1,
             {drive.drive_id, drive.records[r].day, drive.vendor});
    }
  }
  ds.check_invariants();
  return ds;
}

}  // namespace mfpa::core
