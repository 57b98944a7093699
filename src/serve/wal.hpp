// Checksummed write-ahead log for the scoring service's drive state.
//
// DriveStateStore state (each drive's slot: its newest cleaned records,
// segment and alert hysteresis) is a pure function of the raw record
// sequence fed to it, so durability logs *inputs*, not state deltas: every
// record the engine is about to apply is first framed into an append-only
// segment file under `<dir>/wal/`, tagged with a monotonic LSN assigned in
// drain order. Crash recovery loads the newest valid checkpoint (see
// checkpoint.hpp) and re-applies the WAL tail through the normal scoring
// path, which regenerates byte-identical state and alerts.
//
// Frame layout (little-endian, fixed-width — the FNV-1a v2 idiom of
// ml/serialize applied to binary framing). The framing section below owns
// it for every framed byte stream in the tree: WAL segments, alerts.log and
// the MFNP wire (net/protocol), which differ only in magic and size bound:
//
//   u32 magic   "MFWL" on disk, "MFNP" on the wire
//   u32 size    payload bytes
//   u64 seq     LSN (WAL), alert ordinal (alerts.log), sender seq (MFNP)
//   u8  payload[size]
//   u64 digest  FNV-1a 64 over (size, seq, payload)
//
// Torn-tail semantics (the btrfs-progs discipline): a frame that runs past
// EOF or fails its digest *with no valid frame after it* is a torn final
// write — the tail is discarded (those records were never acknowledged
// durable; the feed re-delivers them). A corrupt frame *followed by* a
// valid frame is mid-stream corruption and recovery refuses loudly: state
// reconstructed over a hole would silently diverge from the real fleet.
//
// Segments: one file per generation, named for the checkpoint LSN it
// follows ("c42.wal"). At every checkpoint the writer rotates to a fresh
// segment; once that checkpoint is published, segments older than the
// previous retained checkpoint are deleted, so a corrupt newest checkpoint
// can still fall back one generation without a WAL gap. Appends come from
// the engine's single drain thread, and sharding happens above it
// (net::ShardRouter gives every shard its own durable directory), so one
// file per generation is all the log needs.
//
// Group commit: appends are copied into an open group; every
// `group_commit_records` records (and always at checkpoint/shutdown) the
// group is queued for the writer's commit thread, which frames it, writes
// it with one write and fsyncs once while the drain thread goes on
// scoring. Group hand-offs queue behind the jobs before them instead of
// waiting; the writer's owner bounds the queue (DurabilityManager: by its
// checkpoint cadence, see checkpoint.hpp), and so bounds the replay window.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/online_predictor.hpp"
#include "obs/metrics.hpp"
#include "sim/telemetry.hpp"

namespace mfpa::serve {

/// One durable ingest record: the raw telemetry update plus its LSN.
struct WalEntry {
  std::uint64_t lsn = 0;
  std::uint64_t drive_id = 0;
  int vendor = 0;
  sim::DailyRecord record;
};

// --- framing (WAL segments, alerts.log, the MFNP wire) ---------------------

inline constexpr std::uint32_t kWalFrameMagic = 0x4C57464DU;  // "MFWL"

/// Frame header: magic, size, seq.
inline constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 8;

/// Frame trailer: the digest.
inline constexpr std::size_t kFrameDigestBytes = 8;

/// Payload bound of the on-disk frames (WAL segments, alerts.log).
inline constexpr std::size_t kMaxWalPayload = std::size_t{1} << 24;

/// Appends one frame (magic, size, seq, payload, digest) to `buf`. The only
/// encoder of the frame layout.
void append_frame(std::string& buf, std::uint32_t magic, std::uint64_t seq,
                  std::string_view payload);

/// Outcome of parse_frame at the start of a byte range.
enum class FrameStatus {
  kFrame,       ///< a complete, digest-valid frame
  kNeedMore,    ///< a prefix of a frame that passes every check so far
  kBadMagic,
  kOversized,   ///< size field above the caller's bound (header alone)
  kBadDigest,
};

/// One parse_frame result; `seq`, `payload`, `digest` and `bytes` are set
/// only for kFrame. `payload` views the parsed bytes.
struct ParsedFrame {
  FrameStatus status = FrameStatus::kNeedMore;
  std::uint64_t seq = 0;
  std::string_view payload;
  std::uint64_t digest = 0;
  std::size_t bytes = 0;  ///< whole frame, header through digest
};

/// Validates the frame at the start of `bytes`: magic, then the size bound
/// from the 16-byte header alone (before waiting for the payload, so a
/// hostile length never makes a caller buffer toward it), then the digest.
/// The only decoder of the frame layout.
ParsedFrame parse_frame(std::string_view bytes, std::uint32_t magic,
                        std::size_t max_payload);

/// One frame of a scanned file.
struct DecodedFrame {
  std::uint64_t lsn = 0;
  std::string payload;
  std::uint64_t digest = 0;       ///< frame digest (used for duplicate checks)
  std::size_t end_offset = 0;     ///< byte offset just past this frame
};

/// Result of scanning one framed file front to back.
struct FrameScan {
  std::vector<DecodedFrame> frames;   ///< valid prefix, in file order
  std::size_t valid_bytes = 0;        ///< bytes covered by `frames`
  std::size_t torn_bytes = 0;         ///< discarded torn/trailing garbage
  bool torn_tail = false;             ///< trailing bytes were discarded
};

/// Scans a WAL segment or alerts.log (kWalFrameMagic, kMaxWalPayload),
/// returning every frame of the valid prefix. A torn or corrupt tail is
/// reported in the result; corruption *followed by* another valid frame
/// throws std::runtime_error (mid-stream corruption — the file cannot be
/// trusted past the hole, but data after it provably existed).
FrameScan scan_frames(const std::string& path);

/// Append side of one framed file (a WAL segment, alerts.log): frames are
/// buffered in memory, then flush() writes them with one write and fsyncs
/// the file if anything was written since its last fsync. One thread at a
/// time (a durable directory's segment and alerts.log are written by its
/// WalWriter's commit thread).
class FramedLogWriter {
 public:
  /// `fsync = false` skips every fsync (throwaway tests and benchmarks).
  explicit FramedLogWriter(bool fsync) : fsync_(fsync) {}
  /// Flushes (a failure leaves a torn tail recovery discards), then closes.
  ~FramedLogWriter();

  FramedLogWriter(const FramedLogWriter&) = delete;
  FramedLogWriter& operator=(const FramedLogWriter&) = delete;

  /// Closes any open file, then opens `path` (created if missing) for
  /// appending; `truncate` empties it first.
  void open(const std::string& path, bool truncate);

  /// Closes the file, discarding frames not yet written.
  void close();

  /// Buffers one kWalFrameMagic frame. Throws std::logic_error when no file
  /// is open.
  void append(std::uint64_t seq, std::string_view payload);

  /// Writes buffered frames, then fsyncs if anything was written since the
  /// last fsync; returns true when it fsynced.
  bool flush();

 private:
  bool fsync_;
  int fd_ = -1;
  std::string path_;
  std::string pending_;  ///< frames not yet written to the fd
  bool dirty_ = false;   ///< written but not fsynced
};

/// Bytes of one WAL record payload: drive id, vendor, day, firmware index,
/// then the SMART values (f32), Windows event and BSOD counts (u16).
inline constexpr std::size_t kWalPayloadBytes =
    8 + 4 + 4 + 4 + sim::kNumSmartAttrs * 4 + sim::kNumWindowsEvents * 2 +
    sim::kNumBsodCodes * 2;

/// Bytes of one WAL record frame (header, payload, digest), so the writer
/// counts a record's bytes when it appends, before the frame exists.
inline constexpr std::size_t kWalRecordFrameBytes =
    kFrameHeaderBytes + kWalPayloadBytes + kFrameDigestBytes;

/// Appends the WAL payload for one telemetry record to `buf` (the only
/// encoder; the MFNP record message reuses it) / parses one back.
void append_wal_payload(std::string& buf, std::uint64_t drive_id, int vendor,
                        const sim::DailyRecord& record);
WalEntry decode_wal_payload(std::uint64_t lsn, const std::string& payload);

/// Serializes / parses the alert-log payload for one alert.
std::string encode_alert_payload(const core::Alert& alert);
core::Alert decode_alert_payload(const std::string& payload);

// --- durable file publish (checkpoints, model registry) -------------------

/// Replaces `path` with `contents` crash-safely: writes and fsyncs the
/// dot-temp file beside it (write_publish_temp), renames it over `path`
/// (rename_publish_temp), and fsyncs the directory (sync_dir). A crash
/// leaves either the old file or the complete new one, plus at most a
/// dot-temp orphan. `fsync = false` skips both fsyncs (throwaway tests and
/// benchmarks). Throws std::runtime_error on failure.
void publish_file(const std::string& path, std::string_view contents,
                  bool fsync);

/// publish_file's first step: writes `parts`, in order, to the dot-temp
/// file (".<name>.tmp") beside `path`, then fsyncs it unless `fsync` is
/// false. Throws std::runtime_error naming the dot-temp file.
void write_publish_temp(const std::string& path,
                        std::initializer_list<std::string_view> parts,
                        bool fsync);

/// publish_file's second step: renames the dot-temp file beside `path` onto
/// `path`. The rename is durable once the directory is fsynced.
void rename_publish_temp(const std::string& path);

/// fsyncs directory `dir`, making the names created, renamed or removed in
/// it durable. Throws std::runtime_error naming `dir` on failure.
void sync_dir(const std::string& dir);

/// Whether `name` is a dot-temp file publish_file writes (".<name>.tmp").
bool is_publish_temp_name(const std::string& name);

/// Removes the dot-temp orphans a crashed publish_file left in `dir`. None
/// was ever renamed into place, so none is durable state.
void remove_publish_orphans(const std::string& dir);

// --- writer ----------------------------------------------------------------

struct WalWriterConfig {
  std::string dir;                        ///< durable root (wal/ lives below)
  std::size_t group_commit_records = 256; ///< fsync every N appends (0 = every flush only)
  bool fsync = true;                      ///< false only in throwaway tests
};

/// Append side of the log, and the one I/O thread of its durable directory.
/// Single-writer by contract: every method but wait_committed() comes from
/// one thread (the engine's drain loop).
///
/// The writer's commit thread runs a FIFO of jobs in hand-off order, and
/// every job gets a ticket: 1, 2, ... A WAL group is framed, written with
/// one write and fsynced once; a generation switch (rotate) creates the next
/// segment and fsyncs wal/; a task is whatever the owner hands off
/// (DurabilityManager: alert frames, checkpoint images, directory fsyncs).
/// append() copies the record into the open group, and a full group is
/// queued without waiting for the jobs before it; the owner bounds the
/// queue. The commit thread never renames or unlinks. A failed job is
/// stored, every later job is skipped, and the failure is rethrown on the
/// calling thread by every later hand-off, done(), wait(), flush(), rotate()
/// and wait_committed().
class WalWriter {
 public:
  using Ticket = std::uint64_t;

  explicit WalWriter(WalWriterConfig config);
  /// Commits the open group and waits for every job (a failure leaves a torn
  /// tail recovery discards), then stops the commit thread.
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// rotate(base_lsn), then waits for it.
  void open_generation(std::uint64_t base_lsn);

  /// Copies one record into the open group under the next LSN; returns it.
  /// Queues the group when it holds `group_commit_records` records.
  std::uint64_t append(std::uint64_t drive_id, int vendor,
                       const sim::DailyRecord& record);

  /// Queues the open group, if it holds any record; returns the newest
  /// ticket.
  Ticket hand_off();

  /// Queues `task` for the commit thread; the open group stays open.
  /// Returns the task's ticket.
  Ticket hand_off(std::function<void()> task);

  /// Queues the open group, then the switch to the segment of the
  /// generation after checkpoint `ckpt_lsn` (created empty; an existing
  /// identical generation is truncated — it can only be a remnant of a
  /// crashed rotate). Later groups go to that segment. Returns the switch's
  /// ticket.
  Ticket rotate(std::uint64_t ckpt_lsn);

  /// Deletes the segment files of the generations before `lsn`. The caller
  /// makes sure no job still writes them.
  void drop_generations_before(std::uint64_t lsn);

  /// Tickets handed off so far.
  Ticket handed_off() const noexcept { return handed_off_; }

  /// Whether the job with `ticket`, and every job before it, is done.
  bool done(Ticket ticket) const;

  /// Waits until the job with `ticket`, and every job before it, is done.
  void wait(Ticket ticket) const;

  /// Queues the open group and waits until every job is done.
  void flush();

  /// Waits until every job handed off so far is done; hands nothing off.
  /// Reads only the hand-off state, so any thread may call it.
  void wait_committed() const;

  /// Flushes, deletes every `*.wal` file on disk (recovery finished; fresh
  /// start) and opens generation `base_lsn`.
  void reset(std::uint64_t base_lsn);

  /// Observes every job's seconds in `seconds`, on the commit thread. Call
  /// before the first hand-off.
  void time_jobs(obs::HistogramMetric* seconds) noexcept {
    job_seconds_ = seconds;
  }

  std::uint64_t last_lsn() const noexcept { return next_lsn_ - 1; }
  void set_next_lsn(std::uint64_t lsn) noexcept { next_lsn_ = lsn; }

 private:
  /// One queued job: a WAL group, or a task.
  struct Job {
    std::vector<WalEntry> group;
    std::function<void()> task;
  };

  WalWriterConfig config_;
  FramedLogWriter segment_;  ///< the open generation's file (commit thread)
  std::uint64_t next_lsn_ = 1;
  std::vector<WalEntry> open_group_;  ///< appended, not yet handed off
  /// Generations whose segment files exist, ascending (appending thread).
  std::vector<std::uint64_t> generations_;
  std::string payload_;  ///< commit thread's reused buffer
  obs::HistogramMetric* job_seconds_ = nullptr;

  // Hand-off state, under mu_. handed_off_ is written only by the appending
  // thread, which also reads it without the lock.
  mutable std::mutex mu_;
  std::condition_variable work_;              ///< wakes the commit thread
  mutable std::condition_variable progress_;  ///< a job is done
  std::deque<Job> queue_;
  std::vector<std::vector<WalEntry>> spare_groups_;  ///< committed, emptied
  Ticket handed_off_ = 0;
  Ticket done_ = 0;
  bool stopping_ = false;
  std::exception_ptr failure_;  ///< first failed job, rethrown forever

  struct Metrics {
    obs::Counter* bytes = nullptr;
    obs::Counter* fsyncs = nullptr;
  };
  Metrics metrics_;

  std::thread commit_thread_;  ///< started last, once every member exists

  /// Queues `job`, or rethrows a stored failure; returns the job's ticket.
  /// For a group, the emptied open_group_ takes a spare group's capacity.
  Ticket push(Job job);
  void commit_loop();
  /// Frames `group` into the segment, writes it, fsyncs once.
  void commit_group(const std::vector<WalEntry>& group);
};

// --- recovery --------------------------------------------------------------

/// Accounting of one WAL recovery pass (exported as mfpa_wal_* metrics and
/// surfaced in the serve-replay recovery banner).
struct WalRecoveryStats {
  std::size_t segments_scanned = 0;
  std::size_t records_replayable = 0;  ///< contiguous tail handed back
  std::size_t records_skipped_applied = 0;   ///< lsn <= checkpoint (covered)
  std::size_t records_skipped_duplicate = 0; ///< exact duplicate frames
  std::size_t records_skipped_gap = 0;       ///< beyond the first LSN gap
  std::size_t torn_tails = 0;          ///< files with a discarded tail
};

/// Reads every WAL segment under `<dir>/wal` (generations ascending; other
/// file names are ignored), validates frames, and returns the
/// LSN-contiguous tail starting at `after_lsn + 1`. Exact duplicate frames
/// (same LSN, same digest — segment replayed twice) are dropped; an LSN
/// collision or regression with *different* bytes, and any mid-stream
/// corruption, throw std::runtime_error with the offending file and LSN.
/// Records beyond the first LSN gap are discarded (counted): they were
/// never part of the durable contiguous prefix and the feed will
/// re-deliver them.
std::vector<WalEntry> recover_wal(const std::string& dir,
                                  std::uint64_t after_lsn,
                                  WalRecoveryStats* stats = nullptr);

// --- durable alert log -----------------------------------------------------

/// Append-only framed log of raised alerts, `<dir>/alerts.log`. Frames are
/// numbered by alert ordinal (1-based), so a checkpoint can pin "the first
/// N alerts are durable" and recovery truncates back to exactly N before
/// the WAL replay regenerates the rest.
class AlertLog : private FramedLogWriter {
 public:
  AlertLog(std::string dir, bool fsync = true);

  /// Opens for appending after `count` durable alerts (file must already be
  /// truncated to that many frames — see recover_alert_log).
  void open(std::uint64_t count);

  void append(const core::Alert& alert);
  using FramedLogWriter::flush;

  std::uint64_t count() const noexcept { return count_; }

 private:
  std::string path_;
  std::uint64_t count_ = 0;
};

/// Loads the alert log, truncates it to the first `durable_count` alerts
/// (discarding any post-checkpoint tail, torn or not — the WAL replay
/// regenerates those), and returns them in order. Throws when the log
/// holds fewer valid frames than the checkpoint promised (an alert stream
/// hole that replay cannot patch) or is corrupt mid-stream.
std::vector<core::Alert> recover_alert_log(const std::string& dir,
                                           std::uint64_t durable_count);

}  // namespace mfpa::serve
