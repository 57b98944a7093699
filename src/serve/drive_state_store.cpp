#include "serve/drive_state_store.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

namespace mfpa::serve {

DriveStateStore::DriveStateStore(StoreConfig config) : config_(config) {
  auto& reg = obs::registry();
  metrics_.records_ingested = &reg.counter("mfpa_store_records_ingested_total");
  metrics_.rows_emitted = &reg.counter("mfpa_store_rows_emitted_total");
  metrics_.segments_restarted =
      &reg.counter("mfpa_store_segments_restarted_total");
  metrics_.drives_quarantined =
      &reg.counter("mfpa_store_drives_quarantined_total");
  metrics_.drives_tracked = &reg.gauge("mfpa_store_drives_tracked");
}

void DriveStateStore::ingest(std::uint64_t drive_id, int vendor,
                             const sim::DailyRecord& record,
                             std::vector<PendingRow>& out) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] =
      drives_.try_emplace(drive_id, drive_id, vendor, config_.preprocess);
  if (inserted) metrics_.drives_tracked->add(1.0);
  DriveState& state = it->second;
  ++records_ingested_;
  metrics_.records_ingested->inc();
  state.ingestor.ingest(record);

  if (!state.quarantine_counted && state.ingestor.quarantined()) {
    state.quarantine_counted = true;
    metrics_.drives_quarantined->inc();
  }

  if (state.ingestor.segments_started() != state.segments_seen) {
    // Long gap cut the segment: the batch path would only ever see the new
    // segment, so emission restarts from zero. Alert hysteresis restarts
    // too, but NOT here — rows of the old segment may still be queued for
    // scoring, so the reset is carried on the emitted rows' `segment` tag
    // and applied by should_alert() when scoring crosses the boundary.
    state.segments_seen = state.ingestor.segments_started();
    state.emitted = 0;
    ++segments_restarted_;
    metrics_.segments_restarted->inc();
  }

  if (!state.ingestor.usable()) return;

  const auto& segment = state.ingestor.segment();
  if (segment.size() > state.emitted) {
    metrics_.rows_emitted->inc(segment.size() - state.emitted);
  }
  for (std::size_t i = state.emitted; i < segment.size(); ++i) {
    out.push_back({drive_id, vendor, segment[i], state.segments_seen});
    ++rows_emitted_;
  }
  state.emitted = segment.size();

  if (config_.max_records_per_drive > 0 &&
      segment.size() > config_.max_records_per_drive) {
    state.emitted -= state.ingestor.compact(config_.max_records_per_drive);
  }
}

bool DriveStateStore::should_alert(std::uint64_t drive_id, DayIndex day,
                                   int segment, bool crossed,
                                   const core::AlertPolicy& policy) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = drives_.find(drive_id);
  if (it == drives_.end()) {
    throw std::logic_error("DriveStateStore: should_alert for unknown drive " +
                           std::to_string(drive_id));
  }
  DriveState& state = it->second;
  if (segment != state.alert_segment) {
    // First scored row of a new segment: hysteresis restarts exactly like
    // the batch path, which never saw the old segment.
    state.alert_segment = segment;
    state.consecutive = 0;
    state.last_alert = std::numeric_limits<DayIndex>::min();
  }
  if (!crossed) {
    state.consecutive = 0;
    return false;
  }
  ++state.consecutive;
  if (state.consecutive < policy.min_consecutive) return false;
  if (policy.cooldown_days > 0 &&
      state.last_alert > std::numeric_limits<DayIndex>::min() &&
      day - state.last_alert < policy.cooldown_days) {
    return false;
  }
  state.last_alert = day;
  return true;
}

void DriveStateStore::save_state(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::uint64_t, const DriveState*>> ordered;
  ordered.reserve(drives_.size());
  for (const auto& [id, state] : drives_) ordered.emplace_back(id, &state);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  os << "store 2 " << records_ingested_ << ' ' << rows_emitted_ << ' '
     << segments_restarted_ << '\n';
  os << "drives " << drives_.size() << '\n';
  for (const auto& [id, state] : ordered) {
    os << "drive " << id << ' ' << state->ingestor.vendor() << ' '
       << state->emitted << ' ' << state->segments_seen << ' '
       << (state->quarantine_counted ? 1 : 0) << ' ' << state->consecutive
       << ' ' << state->last_alert << ' ' << state->alert_segment << '\n';
    state->ingestor.save_state(os);
  }
}

void DriveStateStore::load_state(std::istream& is) {
  std::string tag;
  int version = 0;
  std::size_t records_ingested = 0;
  std::size_t rows_emitted = 0;
  std::size_t segments_restarted = 0;
  if (!(is >> tag >> version >> records_ingested >> rows_emitted >>
        segments_restarted) ||
      tag != "store" || version < 1 || version > 2) {
    throw std::runtime_error("DriveStateStore: malformed state header");
  }
  std::size_t n = 0;
  if (!(is >> tag >> n) || tag != "drives" || n > (1u << 26)) {
    throw std::runtime_error("DriveStateStore: malformed drive count");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!drives_.empty()) {
    throw std::logic_error("DriveStateStore: load_state into non-empty store");
  }
  records_ingested_ = records_ingested;
  rows_emitted_ = rows_emitted;
  segments_restarted_ = segments_restarted;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t id = 0;
    int vendor = 0;
    std::size_t emitted = 0;
    int segments_seen = 0;
    int quarantine_counted = 0;
    int consecutive = 0;
    DayIndex last_alert = 0;
    if (!(is >> tag >> id >> vendor >> emitted >> segments_seen >>
          quarantine_counted >> consecutive >> last_alert) ||
        tag != "drive") {
      throw std::runtime_error("DriveStateStore: malformed drive record");
    }
    // v2 adds the segment generation the hysteresis state belongs to; v1
    // checkpoints (taken when the reset was applied eagerly at ingest) are
    // equivalent to state already caught up with the ingest cursor.
    int alert_segment = segments_seen;
    if (version >= 2 && !(is >> alert_segment)) {
      throw std::runtime_error("DriveStateStore: malformed drive record");
    }
    const auto [it, inserted] =
        drives_.try_emplace(id, id, vendor, config_.preprocess);
    if (!inserted) {
      throw std::runtime_error("DriveStateStore: duplicate drive " +
                               std::to_string(id) + " in checkpoint");
    }
    DriveState& state = it->second;
    state.emitted = emitted;
    state.segments_seen = segments_seen;
    state.quarantine_counted = quarantine_counted != 0;
    state.consecutive = consecutive;
    state.last_alert = last_alert;
    state.alert_segment = alert_segment;
    state.ingestor.load_state(is);
    metrics_.drives_tracked->add(1.0);
  }
}

StoreStats DriveStateStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  StoreStats out;
  out.drives_tracked = drives_.size();
  out.records_ingested = records_ingested_;
  out.rows_emitted = rows_emitted_;
  out.segments_restarted = segments_restarted_;
  for (const auto& [id, state] : drives_) {
    (void)id;
    if (state.ingestor.quarantined()) ++out.drives_quarantined;
    out.ingest.merge(state.ingestor.ingest_stats());
  }
  return out;
}

}  // namespace mfpa::serve
