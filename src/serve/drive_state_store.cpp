#include "serve/drive_state_store.hpp"

#include <algorithm>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/wire.hpp"
#include "sim/catalog.hpp"

namespace mfpa::serve {
namespace {

/// Leading tag of the image.
constexpr std::string_view kImageTag = "store 5\n";
// Limits checked before anything is allocated.
constexpr std::size_t kMaxDrives = 1u << 26;
constexpr std::size_t kMaxSegmentRecords = 1u << 24;
// A slot's flags byte.
constexpr std::uint8_t kFrontEmitted = 1;
constexpr std::uint8_t kQuarantineCounted = 2;

const char* mode_name(bool lenient) { return lenient ? "lenient" : "strict"; }

/// Whether `vendor` indexes sim::vendor_catalog(), which names a slot's
/// firmware.
bool known_vendor(int vendor) {
  return vendor >= 0 && static_cast<std::size_t>(vendor) < sim::kNumVendors;
}

void put_record(std::string& out, const core::SourceRecord& rec) {
  wire::put_i32(out, rec.day);
  wire::put_u8(out, rec.firmware_index);
  for (const float v : rec.smart) wire::put_f32(out, v);
  for (const std::uint32_t v : rec.w_cum) wire::put_u32(out, v);
  for (const std::uint32_t v : rec.b_cum) wire::put_u32(out, v);
}

core::SourceRecord get_record(wire::ByteReader& in) {
  core::SourceRecord rec;
  rec.day = in.i32();
  rec.firmware_index = in.u8();
  for (float& v : rec.smart) v = in.f32();
  for (std::uint32_t& v : rec.w_cum) v = in.u32();
  for (std::uint32_t& v : rec.b_cum) v = in.u32();
  return rec;
}

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
                             const sim::DailyRecord& raw,
                             std::vector<PendingRow>& out) {
  const core::PreprocessConfig& pre = config_.preprocess;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = drives_.find(drive_id);
  if (it == drives_.end()) {
    // A drive of a vendor outside the catalog has no firmware names; it is
    // never tracked.
    if (!known_vendor(vendor)) {
      throw std::invalid_argument(
          "DriveStateStore: drive " + std::to_string(drive_id) + ": vendor " +
          std::to_string(vendor) + " is not in the catalog");
    }
    it = drives_.try_emplace(drive_id).first;
    it->second.vendor = vendor;
    if (pre.robustness.lenient()) {
      it->second.sanitizer =
          std::make_unique<core::RecordSanitizer>(pre.robustness);
    }
    metrics_.drives_tracked->add(1.0);
  }
  DriveSlot& slot = it->second;
  ++totals_.records_ingested;

  // Day order: the sanitizer's (lenient: a duplicate or rolled-back day is
  // dropped and counted, values are repaired), or strictly after the
  // newest record. Either way the conversion below sees exactly what the
  // batch Preprocessor would.
  const core::SourceRecord* newest = slot.newest();
  std::optional<sim::DailyRecord> sanitized;
  const sim::DailyRecord* record = &raw;
  if (slot.sanitizer) {
    sanitized = slot.sanitizer->sanitize(raw);
    record = sanitized ? &*sanitized : nullptr;
  } else if (newest != nullptr && raw.day <= newest->day) {
    throw std::invalid_argument(
        "DriveStateStore: drive " + std::to_string(drive_id) +
        ": records must arrive in strictly increasing day order (day " +
        std::to_string(raw.day) + " after day " + std::to_string(newest->day) +
        ")");
  }

  std::optional<core::SourceRecord> arrived;
  if (record != nullptr) {
    if (newest != nullptr && record->day - newest->day >= pre.drop_gap) {
      // Long gap: the batch path would only ever see the new segment, so
      // the records, their sums and emission restart from zero. Alert
      // hysteresis restarts too, but NOT here — rows of the old segment may
      // still be queued for scoring, so the reset is carried on the emitted
      // rows' `segment` tag and applied by should_alert() when scoring
      // crosses the boundary.
      slot.held.clear();
      slot.real_records = 0;
      slot.front_emitted = false;
      ++slot.segment;
      ++totals_.segments_restarted;
      metrics_.segments_restarted->inc();
      newest = nullptr;
    }
    arrived = core::next_source_record(newest, *record);
    ++slot.real_records;
  }

  const bool held = quarantined(slot);
  if (held && !slot.quarantine_counted) {
    slot.quarantine_counted = true;
    metrics_.drives_quarantined->inc();
  }
  if (held || slot.real_records < static_cast<std::size_t>(pre.min_records)) {
    if (arrived) slot.held.push_back(*arrived);
    return;
  }

  // The retention rule: emit what is held, then the arrival, and keep only
  // the newest real record.
  const core::SourceRecord* prev = slot.front_emitted ? &slot.last : nullptr;
  for (const core::SourceRecord& rec : slot.held) {
    emit(drive_id, slot, prev, rec, out);
    prev = &rec;
  }
  if (arrived) {
    emit(drive_id, slot, prev, *arrived, out);
    prev = &*arrived;
  }
  if (prev != nullptr) {
    slot.last = *prev;
    slot.front_emitted = true;
  }
  if (!slot.held.empty()) std::vector<core::SourceRecord>().swap(slot.held);
}

void DriveStateStore::emit(std::uint64_t drive_id, const DriveSlot& slot,
                           const core::SourceRecord* prev,
                           const core::SourceRecord& rec,
                           std::vector<PendingRow>& out) {
  // Each row is written in place: a row is a few hundred bytes, and the
  // drain thread writes one per cleaned record.
  const auto next_row = [&]() -> core::CleanedRecord& {
    PendingRow& row = out.emplace_back();
    row.drive_id = drive_id;
    row.segment = slot.segment;
    ++totals_.rows_emitted;
    return row.record;
  };
  if (prev != nullptr) {
    const int fills =
        core::gap_fills(prev->day, rec.day, config_.preprocess.fill_gap);
    for (int d = 1; d <= fills; ++d) {
      next_row().set_fill(slot.vendor, *prev, rec, d);
    }
  }
  next_row().set_real(slot.vendor, rec);
}

bool DriveStateStore::quarantined(const DriveSlot& slot) const noexcept {
  if (slot.sanitizer == nullptr) return false;
  return slot.sanitizer->quarantined(
      static_cast<std::size_t>(config_.preprocess.min_records));
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
  DriveSlot& slot = it->second;
  if (segment != slot.alert_segment) {
    // First scored row of a new segment: hysteresis restarts exactly like
    // the batch path, which never saw the old segment.
    slot.alert_segment = segment;
    slot.gate = core::AlertGate{};
  }
  return slot.gate.step(day, crossed, policy);
}

std::vector<std::pair<std::uint64_t, const DriveStateStore::DriveSlot*>>
DriveStateStore::by_id() const {
  std::vector<std::pair<std::uint64_t, const DriveSlot*>> ordered;
  ordered.reserve(drives_.size());
  for (const auto& [id, slot] : drives_) ordered.emplace_back(id, &slot);
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
  wire::put_u8(out, config_.preprocess.robustness.lenient() ? 1 : 0);
  wire::put_u64(out, totals_.records_ingested);
  wire::put_u64(out, totals_.rows_emitted);
  wire::put_u64(out, totals_.segments_restarted);
  wire::put_u32(out, static_cast<std::uint32_t>(drives_.size()));
  for (const auto& [id, slot] : by_id()) {
    wire::put_u64(out, id);
    wire::put_i32(out, slot->vendor);
    wire::put_u8(out, (slot->front_emitted ? kFrontEmitted : 0) |
                          (slot->quarantine_counted ? kQuarantineCounted : 0));
    wire::put_i32(out, slot->segment);
    wire::put_i32(out, slot->alert_segment);
    wire::put_i32(out, slot->gate.consecutive);
    wire::put_i32(out, slot->gate.last_alert);
    wire::put_u64(out, slot->real_records);
    if (slot->sanitizer) slot->sanitizer->save_state(out);
    if (slot->front_emitted) put_record(out, slot->last);
    wire::put_u32(out, static_cast<std::uint32_t>(slot->held.size()));
    for (const auto& rec : slot->held) put_record(out, rec);
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
    // older than `store 5` (`store 4` or `store 3`, or the text `store 1` /
    // `store 2`) no longer loads.
    const std::string tag =
        bytes.substr(0, std::min(bytes.find('\n'), kImageTag.size() - 1));
    throw std::runtime_error("store image: unsupported tag '" + tag +
                             "', expected 'store 5'");
  }
  wire::ByteReader in(bytes, "store image");
  in.bytes(kImageTag.size());
  const bool lenient = in.flag();
  if (lenient != config_.preprocess.robustness.lenient()) {
    const std::string written = mode_name(lenient);
    const std::string running = mode_name(!lenient);
    throw std::runtime_error("store image: written under --" + written +
                             " ingest, but this store ingests --" + running +
                             "; resume under the mode that wrote it");
  }
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
    DriveSlot& slot = drives[id];
    slot.vendor = in.i32();
    if (!known_vendor(slot.vendor)) {
      throw std::runtime_error("store image: drive " + std::to_string(id) +
                               " vendor not in the catalog");
    }
    const std::uint8_t flags = in.u8();
    if (flags > (kFrontEmitted | kQuarantineCounted)) {
      throw std::runtime_error("store image: bad flags byte");
    }
    slot.front_emitted = (flags & kFrontEmitted) != 0;
    slot.quarantine_counted = (flags & kQuarantineCounted) != 0;
    slot.segment = in.i32();
    slot.alert_segment = in.i32();
    slot.gate.consecutive = in.i32();
    slot.gate.last_alert = in.i32();
    slot.real_records = in.u64();
    if (lenient) {
      slot.sanitizer = std::make_unique<core::RecordSanitizer>(
          config_.preprocess.robustness);
      slot.sanitizer->load_state(in);
    }
    if (slot.front_emitted) slot.last = get_record(in);
    const std::size_t held = in.count(kMaxSegmentRecords);
    for (std::size_t r = 0; r < held; ++r) slot.held.push_back(get_record(in));
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
  if (!config_.preprocess.robustness.lenient()) return out;
  // Id order: merge() keeps only the first diagnostics, so the sample must
  // not depend on hash-map order (a restored store inserts in id order).
  for (const auto& [id, slot] : by_id()) {
    if (quarantined(*slot)) ++out.drives_quarantined;
    out.ingest.merge(slot->sanitizer->stats());
  }
  return out;
}

}  // namespace mfpa::serve
