#include "core/streaming.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "ml/serialize.hpp"

namespace mfpa::core {

StreamingIngestor::StreamingIngestor(std::uint64_t drive_id, int vendor,
                                     PreprocessConfig config)
    : drive_id_(drive_id),
      vendor_(vendor),
      config_(config),
      sanitizer_(config.robustness) {
  auto& reg = obs::registry();
  metrics_.rows_real =
      &reg.counter("mfpa_stream_rows_total", {{"kind", "real"}});
  metrics_.rows_synthetic =
      &reg.counter("mfpa_stream_rows_total", {{"kind", "synthetic"}});
  metrics_.segments_restarted =
      &reg.counter("mfpa_stream_segments_restarted_total");
}

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
    metrics_.segments_restarted->inc();
  }
  last_day_ = record.day;

  const std::size_t before = segment_.size();
  append_processed(segment_, record, vendor_, config_.fill_gap, w_cum_, b_cum_);
  std::vector<ProcessedRecord> produced(
      segment_.begin() + static_cast<std::ptrdiff_t>(before), segment_.end());
  ++real_records_;
  metrics_.rows_real->inc();
  metrics_.rows_synthetic->inc(produced.size() - 1);
  return produced;
}

std::size_t StreamingIngestor::compact(std::size_t max_records) {
  max_records = std::max<std::size_t>(1, max_records);
  if (segment_.size() <= max_records) return 0;
  const std::size_t drop = segment_.size() - max_records;
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

void StreamingIngestor::save_state(std::ostream& os) const {
  os << "ingestor 1\n";
  sanitizer_.save_state(os);
  os << "counters " << real_records_ << ' ' << segments_started_ << ' '
     << (last_day_.has_value() ? 1 : 0) << ' '
     << (last_day_.has_value() ? *last_day_ : 0) << '\n';
  const auto write_doubles = [&os](const auto& values) {
    for (const double v : values) {
      os << ' ';
      ml::io::write_double(os, v);
    }
  };
  os << "w_cum";
  write_doubles(w_cum_);
  os << "\nb_cum";
  write_doubles(b_cum_);
  os << '\n';
  os << "segment " << segment_.size() << '\n';
  for (const auto& rec : segment_) {
    os << rec.day << ' ' << (rec.synthetic ? 1 : 0) << ' '
       << rec.firmware.size() << ' ' << rec.firmware;
    write_doubles(rec.smart);
    write_doubles(rec.w_cum);
    write_doubles(rec.b_cum);
    os << '\n';
  }
}

void StreamingIngestor::load_state(std::istream& is) {
  std::string tag;
  int version = 0;
  if (!(is >> tag >> version) || tag != "ingestor" || version != 1) {
    throw std::runtime_error("StreamingIngestor: malformed state header");
  }
  sanitizer_.load_state(is);
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
  if (!(is >> tag >> n) || tag != "segment" || n > (1u << 24)) {
    throw std::runtime_error("StreamingIngestor: malformed segment size");
  }
  segment_.clear();
  segment_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ProcessedRecord rec;
    int synthetic = 0;
    std::size_t fw_len = 0;
    if (!(is >> rec.day >> synthetic >> fw_len) || fw_len > 4096 ||
        is.get() != ' ') {
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
