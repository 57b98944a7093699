#include "core/streaming.hpp"

#include <istream>
#include <stdexcept>
#include <string>

#include "common/wire.hpp"
#include "ml/serialize.hpp"

namespace mfpa::core {
namespace {

// Checkpoint-image limits, checked before anything is allocated.
constexpr std::size_t kMaxSegmentRecords = 1u << 24;
constexpr std::size_t kMaxFirmwareBytes = 4096;

}  // namespace

StreamingIngestor::StreamingIngestor(std::uint64_t drive_id, int vendor,
                                     PreprocessConfig config)
    : drive_id_(drive_id),
      vendor_(vendor),
      config_(config),
      sanitizer_(config.robustness) {}

std::vector<ProcessedRecord> StreamingIngestor::ingest(
    const sim::DailyRecord& raw) {
  // The sanitizer enforces the day-order contract (strict: throws; lenient:
  // idempotent duplicate / rollback drops) and repairs values; the gap
  // logic below then sees exactly what the batch Preprocessor would.
  std::optional<sim::DailyRecord> sanitized;
  try {
    sanitized = sanitizer_.sanitize(raw);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("StreamingIngestor: ") + e.what());
  }
  if (!sanitized.has_value()) return {};
  const sim::DailyRecord& record = *sanitized;

  if (last_day_.has_value() && record.day - *last_day_ >= config_.drop_gap) {
    // Long gap: the accumulated segment is unusable going forward; start
    // fresh (counters included), exactly like the batch segment cut.
    segment_.clear();
    real_records_ = 0;
    w_cum_.fill(0.0);
    b_cum_.fill(0.0);
    ++segments_started_;
  }
  last_day_ = record.day;

  const std::size_t before = segment_.size();
  append_processed(segment_, record, vendor_, config_.fill_gap, w_cum_, b_cum_);
  ++real_records_;
  return std::vector<ProcessedRecord>(
      segment_.begin() + static_cast<std::ptrdiff_t>(before), segment_.end());
}

std::size_t StreamingIngestor::compact() {
  if (segment_.size() <= 1) return 0;
  const std::size_t drop = segment_.size() - 1;
  segment_.erase(segment_.begin(),
                 segment_.begin() + static_cast<std::ptrdiff_t>(drop));
  return drop;
}

bool StreamingIngestor::usable() const noexcept {
  return real_records_ >= static_cast<std::size_t>(config_.min_records) &&
         !quarantined();
}

bool StreamingIngestor::quarantined() const noexcept {
  return sanitizer_.quarantined(static_cast<std::size_t>(config_.min_records));
}

ProcessedDrive StreamingIngestor::snapshot() const {
  ProcessedDrive out;
  out.drive_id = drive_id_;
  out.vendor = vendor_;
  out.records = segment_;
  return out;
}

void StreamingIngestor::save_state(std::string& out) const {
  sanitizer_.save_state(out);
  wire::put_u64(out, real_records_);
  wire::put_i32(out, segments_started_);
  wire::put_u8(out, last_day_.has_value() ? 1 : 0);
  wire::put_i32(out, last_day_.value_or(0));
  const auto put_doubles = [&out](const auto& values) {
    for (const double v : values) wire::put_f64(out, v);
  };
  put_doubles(w_cum_);
  put_doubles(b_cum_);
  wire::put_u32(out, static_cast<std::uint32_t>(segment_.size()));
  for (const auto& rec : segment_) {
    wire::put_i32(out, rec.day);
    wire::put_u8(out, rec.synthetic ? 1 : 0);
    wire::put_u32(out, static_cast<std::uint32_t>(rec.firmware.size()));
    out += rec.firmware;
    put_doubles(rec.smart);
    put_doubles(rec.w_cum);
    put_doubles(rec.b_cum);
  }
}

void StreamingIngestor::load_state(wire::ByteReader& in) {
  sanitizer_.load_state(in);
  real_records_ = in.u64();
  segments_started_ = in.i32();
  const bool has_day = in.flag();
  const DayIndex day = in.i32();
  last_day_ = has_day ? std::optional<DayIndex>(day) : std::nullopt;
  const auto get_doubles = [&in](auto& values) {
    for (double& v : values) v = in.f64();
  };
  get_doubles(w_cum_);
  get_doubles(b_cum_);
  const std::size_t n = in.count(kMaxSegmentRecords);
  segment_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    ProcessedRecord rec;
    rec.day = in.i32();
    rec.synthetic = in.flag();
    rec.firmware = in.bytes(in.count(kMaxFirmwareBytes));
    get_doubles(rec.smart);
    get_doubles(rec.w_cum);
    get_doubles(rec.b_cum);
    segment_.push_back(std::move(rec));
  }
}

void StreamingIngestor::load_text_state(std::istream& is) {
  std::string tag;
  int version = 0;
  if (!(is >> tag >> version) || tag != "ingestor" || version != 1) {
    throw std::runtime_error("StreamingIngestor: malformed state header");
  }
  sanitizer_.load_text_state(is);
  int has_day = 0;
  DayIndex day = 0;
  if (!(is >> tag >> real_records_ >> segments_started_ >> has_day >> day) ||
      tag != "counters") {
    throw std::runtime_error("StreamingIngestor: malformed counters");
  }
  last_day_ = has_day ? std::optional<DayIndex>(day) : std::nullopt;
  const auto read_doubles = [&is](auto& values) {
    for (double& v : values) v = ml::io::read_double(is);
  };
  if (!(is >> tag) || tag != "w_cum") {
    throw std::runtime_error("StreamingIngestor: malformed w_cum");
  }
  read_doubles(w_cum_);
  if (!(is >> tag) || tag != "b_cum") {
    throw std::runtime_error("StreamingIngestor: malformed b_cum");
  }
  read_doubles(b_cum_);
  std::size_t n = 0;
  if (!(is >> tag >> n) || tag != "segment" || n > kMaxSegmentRecords) {
    throw std::runtime_error("StreamingIngestor: malformed segment size");
  }
  segment_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    ProcessedRecord rec;
    int synthetic = 0;
    std::size_t fw_len = 0;
    if (!(is >> rec.day >> synthetic >> fw_len) ||
        fw_len > kMaxFirmwareBytes || is.get() != ' ') {
      throw std::runtime_error("StreamingIngestor: malformed segment record");
    }
    rec.synthetic = synthetic != 0;
    rec.firmware.assign(fw_len, '\0');
    if (!is.read(rec.firmware.data(), static_cast<std::streamsize>(fw_len))) {
      throw std::runtime_error("StreamingIngestor: truncated firmware string");
    }
    read_doubles(rec.smart);
    read_doubles(rec.w_cum);
    read_doubles(rec.b_cum);
    segment_.push_back(std::move(rec));
  }
  if (!is) {
    throw std::runtime_error("StreamingIngestor: truncated state");
  }
}

}  // namespace mfpa::core
