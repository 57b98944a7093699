#include "serve/checkpoint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ml/checksum.hpp"

namespace mfpa::serve {
namespace fs = std::filesystem;

namespace {

fs::path ckpt_dir(const std::string& dir) { return fs::path(dir) / "ckpt"; }

std::string ckpt_name(std::uint64_t lsn) {
  return "ckpt-" + std::to_string(lsn) + ".mfc";
}

/// Parses "ckpt-42.mfc" -> 42; nullopt for other names.
std::optional<std::uint64_t> parse_ckpt_name(const std::string& name) {
  if (!name.starts_with("ckpt-") || !name.ends_with(".mfc")) {
    return std::nullopt;
  }
  try {
    std::size_t used = 0;
    const std::string digits = name.substr(5, name.size() - 9);
    const std::uint64_t lsn = std::stoull(digits, &used);
    if (used != digits.size()) return std::nullopt;
    return lsn;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// The payload: the checkpoint line, then the store image.
void append_checkpoint_payload(std::string& payload,
                               const DriveStateStore& store, std::uint64_t lsn,
                               std::uint64_t alert_count, int model_version) {
  payload += "checkpoint 1 " + std::to_string(lsn) + ' ' +
             std::to_string(alert_count) + ' ' +
             std::to_string(model_version) + '\n';
  store.save_state(payload);
}

/// The sealed file's header line (ml::seal_header).
std::string checkpoint_header(std::size_t payload_bytes, std::uint64_t digest) {
  return ml::seal_header("mfpa_ckpt", 1, payload_bytes, digest);
}

}  // namespace

void write_checkpoint_file(const std::string& path,
                           const DriveStateStore& store, std::uint64_t lsn,
                           std::uint64_t alert_count, int model_version,
                           bool fsync) {
  std::string payload;
  append_checkpoint_payload(payload, store, lsn, alert_count, model_version);
  publish_file(path, ml::seal("mfpa_ckpt", 1, payload), fsync);
}

CheckpointImage load_checkpoint_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    throw std::runtime_error("checkpoint: cannot open " + path);
  }
  std::string bytes((std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());
  const std::string_view payload =
      ml::unseal(bytes, "mfpa_ckpt", 1, "checkpoint " + path);
  const std::size_t body_nl = payload.find('\n');
  if (body_nl == std::string::npos) {
    throw std::runtime_error("checkpoint: missing payload header in " + path);
  }
  std::istringstream body_header(std::string(payload.substr(0, body_nl)));
  CheckpointImage image;
  std::string tag;
  int version = 0;
  if (!(body_header >> tag >> version >> image.lsn >> image.alert_count >>
        image.model_version) ||
      tag != "checkpoint" || version != 1) {
    throw std::runtime_error("checkpoint: malformed payload header in " + path);
  }
  image.store_state = std::string(payload.substr(body_nl + 1));
  return image;
}

std::vector<std::pair<std::uint64_t, std::string>> list_checkpoints(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  const fs::path d = ckpt_dir(dir);
  if (!fs::exists(d)) return out;
  for (const auto& entry : fs::directory_iterator(d)) {
    const auto lsn = parse_ckpt_name(entry.path().filename().string());
    if (lsn.has_value()) out.emplace_back(*lsn, entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// --- DurabilityManager -----------------------------------------------------

namespace {

/// Rejecting the empty dir here, before the member initializers run, keeps
/// WalWriter/AlertLog from creating stray `wal/` dirs relative to the cwd.
DurabilityConfig validated(DurabilityConfig config) {
  if (!config.enabled()) {
    throw std::invalid_argument("DurabilityManager: empty durable dir");
  }
  return config;
}

}  // namespace

DurabilityManager::DurabilityManager(DurabilityConfig config)
    : config_(validated(std::move(config))),
      alerts_(config_.dir, config_.fsync),
      wal_(WalWriterConfig{config_.dir, config_.group_commit_records,
                           config_.fsync}) {
  fs::create_directories(ckpt_dir(config_.dir));
  auto& reg = obs::registry();
  metrics_.writes = &reg.counter("mfpa_ckpt_writes_total");
  metrics_.bytes = &reg.counter("mfpa_ckpt_bytes_total");
  metrics_.fallbacks = &reg.counter("mfpa_ckpt_fallbacks_total");
  metrics_.last_lsn = &reg.gauge("mfpa_ckpt_last_lsn");
}

DurabilityManager::~DurabilityManager() {
  try {
    settle();
  } catch (...) {
    // Destructor: the WAL stays authoritative; recovery replays it.
  }
}

RecoveryResult DurabilityManager::recover(DriveStateStore& store,
                                          int current_model_version) {
  RecoveryResult result;

  remove_publish_orphans(ckpt_dir(config_.dir).string());

  auto candidates = list_checkpoints(config_.dir);
  std::optional<CheckpointImage> image;
  std::string failure;
  for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
    try {
      image = load_checkpoint_file(it->second);
      break;
    } catch (const std::exception& e) {
      // A corrupt newest checkpoint falls back one generation (the WAL keeps
      // segments that far); anything beyond that is unrecoverable below.
      ++result.checkpoints_skipped;
      metrics_.fallbacks->inc();
      if (failure.empty()) failure = e.what();
    }
  }
  if (!image.has_value() && !candidates.empty()) {
    throw std::runtime_error(
        "checkpoint: no valid checkpoint among " +
        std::to_string(candidates.size()) +
        " candidates; refusing to rebuild state over a hole (first error: " +
        failure + ")");
  }
  for (const auto& [lsn, path] : candidates) checkpoints_.push_back(lsn);

  std::uint64_t after_lsn = 0;
  std::uint64_t durable_alerts = 0;
  if (image.has_value()) {
    if (image->model_version != current_model_version) {
      throw std::runtime_error(
          "checkpoint: pinned to model version " +
          std::to_string(image->model_version) +
          " but the registry's current version is " +
          std::to_string(current_model_version) +
          "; replaying under a different model would fabricate alerts");
    }
    std::istringstream state(image->store_state);
    store.load_state(state);
    result.checkpoint_loaded = true;
    result.checkpoint_lsn = image->lsn;
    result.model_version = image->model_version;
    after_lsn = image->lsn;
    durable_alerts = image->alert_count;
  }

  result.alerts = recover_alert_log(config_.dir, durable_alerts);
  alert_count_ = durable_alerts;
  result.tail = recover_wal(config_.dir, after_lsn, &result.wal);
  result.durable_records = after_lsn + result.tail.size();
  wal_.set_next_lsn(result.durable_records + 1);
  last_checkpoint_lsn_ = after_lsn;
  prev_checkpoint_lsn_ = after_lsn;
  return result;
}

void DurabilityManager::finish_recovery(const DriveStateStore& store,
                                        int model_version) {
  stage(store, model_version, /*rotate=*/false);
  publish_staged(/*wait=*/true);
  // The replayed segments are fully covered by the snapshot: restart the
  // WAL from a clean generation.
  wal_.reset(wal_.last_lsn());
  recovered_ = true;
}

std::uint64_t DurabilityManager::append(std::uint64_t drive_id, int vendor,
                                        const sim::DailyRecord& record) {
  if (!recovered_) {
    throw std::logic_error("DurabilityManager: append before finish_recovery");
  }
  ++records_since_checkpoint_;
  const WalWriter::Ticket before = wal_.handed_off();
  const std::uint64_t lsn = wal_.append(drive_id, vendor, record);
  // Without a checkpoint cadence nothing else bounds the I/O queue: keep
  // one group in flight.
  if (config_.checkpoint_interval_records == 0 &&
      wal_.handed_off() != before) {
    wal_.wait(before);
  }
  return lsn;
}

void DurabilityManager::append_alert(const core::Alert& alert) {
  pending_alerts_.push_back(alert);
  ++alert_count_;
}

void DurabilityManager::on_batch_end(const DriveStateStore& store,
                                     int model_version) {
  if (config_.checkpoint_interval_records > 0 &&
      records_since_checkpoint_ >= config_.checkpoint_interval_records) {
    stage(store, model_version, /*rotate=*/true);
  } else {
    publish_staged(/*wait=*/false);
  }
}

void DurabilityManager::checkpoint_now(const DriveStateStore& store,
                                       int model_version) {
  stage(store, model_version, /*rotate=*/true);
  publish_staged(/*wait=*/true);
}

void DurabilityManager::flush() {
  hand_off("");
  publish_staged(/*wait=*/true);
  wal_.wait_committed();
}

void DurabilityManager::settle() { publish_staged(/*wait=*/true); }

void DurabilityManager::stage(const DriveStateStore& store, int model_version,
                              bool rotate) {
  publish_staged(/*wait=*/true);  // one image in memory at a time
  const std::uint64_t lsn = wal_.last_lsn();
  image_.clear();
  append_checkpoint_payload(image_, store, lsn, alert_count_, model_version);
  metrics_.writes->inc();
  metrics_.bytes->inc(checkpoint_header(image_.size(), 0).size() +
                      image_.size());
  metrics_.last_lsn->set(static_cast<double>(lsn));
  // WAL-then-checkpoint: the group holding `lsn` is queued before the
  // image, so the I/O thread has fsynced it when the image is written.
  staged_ = Staged{
      lsn, hand_off((ckpt_dir(config_.dir) / ckpt_name(lsn)).string())};
  if (rotate) wal_.rotate(lsn);
  if (lsn != last_checkpoint_lsn_) {
    prev_checkpoint_lsn_ = last_checkpoint_lsn_;
    last_checkpoint_lsn_ = lsn;
  }
  records_since_checkpoint_ = 0;
}

WalWriter::Ticket DurabilityManager::hand_off(std::string image_path) {
  wal_.hand_off();
  if (pending_alerts_.empty() && image_path.empty()) {
    return wal_.handed_off();
  }
  const std::uint64_t before = alert_count_ - pending_alerts_.size();
  return wal_.hand_off([this, before, path = std::move(image_path),
                        alerts = std::exchange(pending_alerts_, {})] {
    if (!alerts.empty()) {
      if (!alerts_open_) {
        alerts_.open(before);
        alerts_open_ = true;
      }
      for (const core::Alert& alert : alerts) alerts_.append(alert);
      alerts_.flush();
    }
    if (!path.empty()) {
      write_publish_temp(
          path, {checkpoint_header(image_.size(), ml::fnv1a(image_)), image_},
          config_.fsync);
    }
  });
}

void DurabilityManager::publish_staged(bool wait) {
  if (!staged_) return;
  Staged& staged = *staged_;
  if (staged.synced == 0) {
    if (!wait && !wal_.done(staged.written)) return;
    wal_.wait(staged.written);
    const fs::path dir = ckpt_dir(config_.dir);
    rename_publish_temp((dir / ckpt_name(staged.lsn)).string());
    staged.synced =
        config_.fsync
            ? wal_.hand_off([dir = dir.string()] { sync_dir(dir); })
            : staged.written;
  }
  if (!wait && !wal_.done(staged.synced)) return;
  wal_.wait(staged.synced);
  // The rename is durable: drop what the two newest checkpoints supersede.
  const auto at =
      std::lower_bound(checkpoints_.begin(), checkpoints_.end(), staged.lsn);
  if (at == checkpoints_.end() || *at != staged.lsn) {
    checkpoints_.insert(at, staged.lsn);
  }
  const std::size_t drop = checkpoints_.size() > 2 ? checkpoints_.size() - 2 : 0;
  for (std::size_t i = 0; i < drop; ++i) {
    fs::remove(ckpt_dir(config_.dir) / ckpt_name(checkpoints_[i]));
  }
  checkpoints_.erase(checkpoints_.begin(), checkpoints_.begin() + drop);
  // Keep WAL generations back to the fallback checkpoint, no further.
  wal_.drop_generations_before(prev_checkpoint_lsn_);
  staged_.reset();
}

}  // namespace mfpa::serve
