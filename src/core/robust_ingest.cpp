#include "core/robust_ingest.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/wire.hpp"

namespace mfpa::core {
namespace {

/// A SMART float at/above this is a saturated/overflowed upload, not data
/// (the largest legitimate counter in the catalog is orders of magnitude
/// smaller).
constexpr float kSaturationThreshold = 1e30f;

/// Lenient mode quarantines a drive once more than this fraction of its
/// delivered records was dropped.
constexpr double kQuarantineBadFraction = 0.5;

bool bad_smart_value(float v) noexcept {
  return !std::isfinite(v) || v < 0.0f || v >= kSaturationThreshold;
}

}  // namespace

RecordSanitizer::RecordSanitizer(RobustnessConfig config)
    : RecordSanitizer(config, obs::registry()) {}

RecordSanitizer::RecordSanitizer(RobustnessConfig config,
                                 obs::MetricsRegistry& reg)
    : config_(config) {
  metrics_.duplicate_days =
      &reg.counter("mfpa_ingest_faults_total", {{"cause", "duplicate_day"}});
  metrics_.clock_rollbacks =
      &reg.counter("mfpa_ingest_faults_total", {{"cause", "clock_rollback"}});
  metrics_.counter_resets = &reg.counter(
      "mfpa_ingest_faults_total", {{"cause", "counter_reset_rebased"}});
  metrics_.values_repaired =
      &reg.counter("mfpa_ingest_faults_total", {{"cause", "value_repaired"}});
}

void RecordSanitizer::reset() {
  stats_ = IngestStats{};
  last_day_.reset();
  last_raw_.fill(0.0f);
  rebase_offset_.fill(0.0);
  last_good_.fill(0.0f);
}

bool RecordSanitizer::quarantined(std::size_t min_delivered) const noexcept {
  return config_.lenient() && stats_.rows_read >= min_delivered &&
         static_cast<double>(stats_.rows_dropped) >
             kQuarantineBadFraction *
                 static_cast<double>(stats_.rows_read);
}

std::optional<sim::DailyRecord> RecordSanitizer::sanitize(
    const sim::DailyRecord& raw) {
  ++stats_.rows_read;

  // Day-order policy. Strict keeps the historical fail-fast contract;
  // lenient treats a re-delivered day as an idempotent retry and a rollback
  // as clock skew, dropping the record either way.
  if (last_day_.has_value() && raw.day <= *last_day_) {
    if (!config_.lenient()) {
      throw std::invalid_argument(
          "records must arrive in strictly increasing day order (day " +
          std::to_string(raw.day) + " after day " + std::to_string(*last_day_) +
          ")");
    }
    ++stats_.rows_dropped;
    if (raw.day == *last_day_) {
      ++stats_.duplicate_days;
      metrics_.duplicate_days->inc();
      stats_.note("day " + std::to_string(raw.day) + ": duplicate upload");
    } else {
      ++stats_.clock_rollbacks;
      metrics_.clock_rollbacks->inc();
      stats_.note("day " + std::to_string(raw.day) + ": clock rollback past " +
                  std::to_string(*last_day_));
    }
    return std::nullopt;
  }
  last_day_ = raw.day;
  if (!config_.lenient()) return raw;

  sim::DailyRecord rec = raw;
  const std::size_t values_before = stats_.values_repaired;
  bool repaired = false;

  // Monotone counters first: re-base resets on the raw scale, then repair
  // garbage on the effective scale so output stays monotone.
  std::array<bool, sim::kNumSmartAttrs> handled{};
  const auto& monotone = sim::kMonotoneCounters;
  for (std::size_t m = 0; m < monotone.size(); ++m) {
    const auto a = static_cast<std::size_t>(monotone[m]);
    handled[a] = true;
    float& v = rec.smart[a];
    if (bad_smart_value(v)) {
      v = last_good_[a];
      ++stats_.values_repaired;
      repaired = true;
      continue;  // a garbage value must not shift the re-basing state
    }
    if (v + 1e-3f < last_raw_[m]) {
      // Counter restarted (firmware update / controller reset): carry the
      // pre-reset total forward so deltas stay meaningful.
      rebase_offset_[m] += static_cast<double>(last_raw_[m]);
      ++stats_.counter_resets_rebased;
      metrics_.counter_resets->inc();
      stats_.note("day " + std::to_string(rec.day) + ": counter reset (" +
                  sim::smart_attr_names()[a] + " " +
                  std::to_string(last_raw_[m]) + " -> " + std::to_string(v) +
                  "), re-based");
      repaired = true;
    }
    last_raw_[m] = v;
    v = static_cast<float>(static_cast<double>(v) + rebase_offset_[m]);
    last_good_[a] = v;
  }

  // Every other SMART field: NaN / negative / saturated values take the
  // last good value seen for the attribute (0 when there is none).
  for (std::size_t a = 0; a < sim::kNumSmartAttrs; ++a) {
    if (handled[a]) continue;
    float& v = rec.smart[a];
    if (bad_smart_value(v)) {
      v = last_good_[a];
      ++stats_.values_repaired;
      repaired = true;
    } else {
      last_good_[a] = v;
    }
  }
  // Saturated daily event counts are transport artifacts, not activity:
  // zero them rather than pollute the cumulative W/B features.
  for (auto& v : rec.w) {
    if (v == std::numeric_limits<std::uint16_t>::max()) {
      v = 0;
      ++stats_.values_repaired;
      repaired = true;
    }
  }
  for (auto& v : rec.b) {
    if (v == std::numeric_limits<std::uint16_t>::max()) {
      v = 0;
      ++stats_.values_repaired;
      repaired = true;
    }
  }

  if (repaired) {
    ++stats_.rows_repaired;
    metrics_.values_repaired->inc(stats_.values_repaired - values_before);
  }
  return rec;
}

void RecordSanitizer::save_state(std::string& out) const {
  stats_.save(out);
  wire::put_u8(out, last_day_.has_value() ? 1 : 0);
  wire::put_i32(out, last_day_.value_or(0));
  for (const float v : last_raw_) wire::put_f32(out, v);
  for (const double v : rebase_offset_) wire::put_f64(out, v);
  for (const float v : last_good_) wire::put_f32(out, v);
}

void RecordSanitizer::load_state(wire::ByteReader& in) {
  stats_.load(in);
  const bool has_day = in.flag();
  const DayIndex day = in.i32();
  last_day_ = has_day ? std::optional<DayIndex>(day) : std::nullopt;
  for (float& v : last_raw_) v = in.f32();
  for (double& v : rebase_offset_) v = in.f64();
  for (float& v : last_good_) v = in.f32();
}

}  // namespace mfpa::core
