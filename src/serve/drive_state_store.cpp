#include "serve/drive_state_store.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/wire.hpp"

namespace mfpa::serve {
namespace {

/// Leading tag of the image.
constexpr std::string_view kImageTag = "store 3\n";
constexpr std::size_t kMaxDrives = 1u << 26;

}  // namespace

DriveStateStore::DriveStateStore(StoreConfig config) : config_(config) {
  auto& reg = obs::registry();
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
  ++totals_.records_ingested;
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
    ++totals_.segments_restarted;
    metrics_.segments_restarted->inc();
  }

  if (!state.ingestor.usable()) return;

  const auto& segment = state.ingestor.segment();
  for (std::size_t i = state.emitted; i < segment.size(); ++i) {
    out.push_back({drive_id, vendor, segment[i], state.segments_seen});
    ++totals_.rows_emitted;
  }
  state.emitted = segment.size();
  retain(state);
}

void DriveStateStore::retain(DriveState& state) {
  if (state.emitted == state.ingestor.segment().size()) {
    state.emitted -= state.ingestor.compact();
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
    state.gate = core::AlertGate{};
  }
  return state.gate.step(day, crossed, policy);
}

std::vector<std::pair<std::uint64_t, const DriveStateStore::DriveState*>>
DriveStateStore::by_id() const {
  std::vector<std::pair<std::uint64_t, const DriveState*>> ordered;
  ordered.reserve(drives_.size());
  for (const auto& [id, state] : drives_) ordered.emplace_back(id, &state);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return ordered;
}

void DriveStateStore::save_state(std::ostream& os) const {
  std::string image;
  save_state(image);
  os.write(image.data(), static_cast<std::streamsize>(image.size()));
}

void DriveStateStore::save_state(std::string& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out += kImageTag;
  wire::put_u64(out, totals_.records_ingested);
  wire::put_u64(out, totals_.rows_emitted);
  wire::put_u64(out, totals_.segments_restarted);
  wire::put_u32(out, static_cast<std::uint32_t>(drives_.size()));
  for (const auto& [id, state] : by_id()) {
    wire::put_u64(out, id);
    wire::put_i32(out, state->ingestor.vendor());
    wire::put_u32(out, static_cast<std::uint32_t>(state->emitted));
    wire::put_i32(out, state->segments_seen);
    wire::put_u8(out, state->quarantine_counted ? 1 : 0);
    wire::put_i32(out, state->alert_segment);
    wire::put_i32(out, state->gate.consecutive);
    wire::put_i32(out, state->gate.last_alert);
    state->ingestor.save_state(out);
  }
}

void DriveStateStore::load_state(std::istream& is) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string image = std::move(buffer).str();
  Totals totals;
  DriveMap drives;
  read_image(image, totals, drives);
  std::lock_guard<std::mutex> lock(mu_);
  if (!drives_.empty()) {
    throw std::logic_error("DriveStateStore: load_state into non-empty store");
  }
  totals_ = totals;
  drives_ = std::move(drives);
  metrics_.drives_tracked->add(static_cast<double>(drives_.size()));
}

void DriveStateStore::read_image(const std::string& bytes, Totals& totals,
                                 DriveMap& drives) const {
  if (!bytes.starts_with(kImageTag)) {
    // Name what the image starts with, up to the tag's width: an image
    // older than `store 3` (the text `store 1` / `store 2`) no longer loads.
    const std::string tag =
        bytes.substr(0, std::min(bytes.find('\n'), kImageTag.size() - 1));
    throw std::runtime_error("store image: unsupported tag '" + tag +
                             "', expected 'store 3'");
  }
  wire::ByteReader in(bytes, "store image");
  in.bytes(kImageTag.size());
  totals.records_ingested = in.u64();
  totals.rows_emitted = in.u64();
  totals.segments_restarted = in.u64();
  const std::size_t n = in.count(kMaxDrives);
  std::uint64_t prev_id = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t id = in.u64();
    if (i > 0 && id <= prev_id) {
      throw std::runtime_error("store image: drive ids out of order");
    }
    prev_id = id;
    const int vendor = in.i32();
    DriveState& state =
        drives.try_emplace(id, id, vendor, config_.preprocess).first->second;
    state.emitted = in.u32();
    state.segments_seen = in.i32();
    state.quarantine_counted = in.flag();
    state.alert_segment = in.i32();
    state.gate.consecutive = in.i32();
    state.gate.last_alert = in.i32();
    state.ingestor.load_state(in);
    if (state.emitted > state.ingestor.segment().size()) {
      throw std::runtime_error("DriveStateStore: drive " + std::to_string(id) +
                               " emission cursor past its segment");
    }
  }
  in.expect_done();
}

StoreStats DriveStateStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  StoreStats out;
  out.drives_tracked = drives_.size();
  out.records_ingested = totals_.records_ingested;
  out.rows_emitted = totals_.rows_emitted;
  out.segments_restarted = totals_.segments_restarted;
  // Id order: merge() keeps only the first diagnostics, so the sample must
  // not depend on hash-map order (a restored store inserts in id order).
  for (const auto& [id, state] : by_id()) {
    if (state->ingestor.quarantined()) ++out.drives_quarantined;
    out.ingest.merge(state->ingestor.ingest_stats());
  }
  return out;
}

}  // namespace mfpa::serve
