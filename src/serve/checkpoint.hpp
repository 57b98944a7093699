// Compacted checkpoints + the DurabilityManager that makes the scoring
// service crash-consistent.
//
// A checkpoint is a point-in-time snapshot of the DriveStateStore (every
// drive's ingestor state and retained records, emission cursor, and alert
// gate) plus the WAL position and durable-alert count it corresponds to,
// written with the same checksummed framing as model artifacts:
//
//   mfpa_ckpt 1 <payload bytes> <fnv1a-64 hex of payload>
//   checkpoint 1 <lsn> <durable alert count> <model version>
//   <DriveStateStore::save_state image>
//
// The two header lines are text; the store image is binary (`store 3`,
// fixed-width little-endian, O(1) per drive). The digest is verified
// before any of the payload is parsed. A digest-valid checkpoint holding
// any other image (the text `store 1` / `store 2` of older builds) fails
// recovery loudly: DriveStateStore::load_state names its tag.
//
// Files live under `<dir>/ckpt/ckpt-<lsn>.mfc`, written dot-temp + fsync +
// rename (serve::publish_file, shared with the model registry; recovery
// sweeps a crashed publish's orphan with remove_publish_orphans). The
// startup seal and every later checkpoint take one write path, and the
// two newest are retained so a corrupt newest checkpoint falls back one
// generation — the WAL keeps its one segment file per generation back to
// the retained checkpoint (wal.hpp), so the fallback replays a longer tail
// instead of losing records. The store image lists drives by id after the
// fleet totals, so its bytes depend only on the records applied.
//
// Recovery contract (proved by tests/integration/test_durable_replay):
// newest digest-valid checkpoint -> store; alert log truncated to the
// pinned count; WAL tail after the checkpoint LSN re-applied through the
// normal scoring path. The result is byte-identical alerts to a run that
// never crashed. A checkpoint whose model version differs from the
// registry's current model refuses loudly: replaying records under a
// different model would fabricate an alert stream no real deployment saw.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/online_predictor.hpp"
#include "obs/metrics.hpp"
#include "serve/drive_state_store.hpp"
#include "serve/wal.hpp"

namespace mfpa::serve {

struct DurabilityConfig {
  /// Durable root directory; empty disables durability entirely.
  std::string dir;
  /// fsync the WAL every N appended records (0 = only at flush/checkpoint).
  std::size_t group_commit_records = 256;
  /// Take a checkpoint after this many records since the last one
  /// (0 = only at shutdown).
  std::size_t checkpoint_interval_records = 4096;
  /// false only in throwaway tests.
  bool fsync = true;

  bool enabled() const noexcept { return !dir.empty(); }
};

/// What recovery found on disk (surfaced in the serve-replay banner).
struct RecoveryResult {
  bool checkpoint_loaded = false;
  std::uint64_t checkpoint_lsn = 0;   ///< WAL position the snapshot covers
  int model_version = -1;             ///< version pinned by the checkpoint
  std::uint64_t durable_records = 0;  ///< checkpoint_lsn + replayed tail size
  std::vector<core::Alert> alerts;    ///< durable alerts up to the checkpoint
  std::vector<WalEntry> tail;         ///< WAL records to re-apply, LSN order
  WalRecoveryStats wal;
  std::size_t checkpoints_skipped = 0;  ///< corrupt newer checkpoints passed over
};

// --- low-level checkpoint I/O (exposed for tests / fault injection) --------

/// Atomically writes one checkpoint file for `store` at WAL position `lsn`.
void write_checkpoint_file(const std::string& path, const DriveStateStore& store,
                           std::uint64_t lsn, std::uint64_t alert_count,
                           int model_version, bool fsync);

/// Parsed checkpoint header (payload already digest-verified).
struct CheckpointImage {
  std::uint64_t lsn = 0;
  std::uint64_t alert_count = 0;
  int model_version = -1;
  std::string store_state;  ///< DriveStateStore::save_state image
};

/// Loads and verifies one checkpoint file. Throws std::runtime_error on a
/// missing file, bad framing, byte-count mismatch, or digest mismatch.
CheckpointImage load_checkpoint_file(const std::string& path);

/// Checkpoint files under `<dir>/ckpt`, sorted by LSN ascending.
std::vector<std::pair<std::uint64_t, std::string>> list_checkpoints(
    const std::string& dir);

// --- coordinator -----------------------------------------------------------

/// Owns the WAL writer, the alert log, and the checkpoint cadence for one
/// engine. Single-threaded by contract: every method but wait_committed()
/// is called from the engine's drain thread (or before it starts / after
/// it stops). The WAL's writes and fsyncs run on the writer's commit thread
/// (wal.hpp). A checkpoint is published only after the commit that covers
/// its LSN: seal() starts with flush(), which commits the open group and
/// waits for it. Publishing, WAL rotation and pruning stay on the drain
/// thread, and so do the alert log's writes and fsyncs.
class DurabilityManager {
 public:
  explicit DurabilityManager(DurabilityConfig config);

  const DurabilityConfig& config() const noexcept { return config_; }

  /// Phase one of startup: loads the newest digest-valid checkpoint into
  /// `store` (which must be empty), truncates the alert log to the pinned
  /// count, and collects the WAL tail to re-apply. `current_model_version`
  /// is the registry's active version; a checkpoint pinned to a different
  /// version throws. After the caller replays `tail` through the scoring
  /// path it must call finish_recovery().
  RecoveryResult recover(DriveStateStore& store, int current_model_version);

  /// Phase two: seals recovery with a fresh checkpoint of the replayed
  /// state and resets the WAL to a clean generation. Also the correct
  /// "start fresh" call when recover() found nothing.
  void finish_recovery(const DriveStateStore& store, int model_version);

  /// Adds one record to the WAL's open group (group commit applies);
  /// returns its LSN.
  std::uint64_t append(std::uint64_t drive_id, int vendor,
                       const sim::DailyRecord& record);

  /// Appends one raised alert to the durable alert log.
  void append_alert(const core::Alert& alert);

  /// Checkpoint-cadence hook, called after every processed batch; takes a
  /// checkpoint when checkpoint_interval_records have been appended since
  /// the last one.
  void on_batch_end(const DriveStateStore& store, int model_version);

  /// Flushes WAL + alert log, snapshots `store`, writes the checkpoint,
  /// rotates the WAL, and prunes old checkpoints (two retained).
  void checkpoint_now(const DriveStateStore& store, int model_version);

  /// Makes everything appended so far durable (no checkpoint).
  void flush();

  /// Waits until the WAL group in flight, if any, is written and fsynced;
  /// rethrows a failed commit. Any thread may call it.
  void wait_committed() const { wal_.wait_committed(); }

  std::uint64_t last_lsn() const noexcept { return wal_.last_lsn(); }
  std::uint64_t alert_count() const noexcept { return alerts_.count(); }

 private:
  DurabilityConfig config_;
  WalWriter wal_;
  AlertLog alerts_;
  std::uint64_t last_checkpoint_lsn_ = 0;
  std::uint64_t prev_checkpoint_lsn_ = 0;  ///< retained fallback generation
  std::size_t records_since_checkpoint_ = 0;
  bool recovered_ = false;

  struct Metrics {
    obs::Counter* writes = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Counter* fallbacks = nullptr;
    obs::Gauge* last_lsn = nullptr;
  };
  Metrics metrics_;

  /// The one checkpoint write path: flush, write, count, advance the LSN
  /// bookkeeping, then reset (after recovery) or rotate the WAL, and prune.
  void seal(const DriveStateStore& store, int model_version,
            bool after_recovery);
  void prune_checkpoints();
};

}  // namespace mfpa::serve
