// Fleet replay: the one feed loop that streams simulated telemetry into a
// RecordSink in arrival order (day by day, drive id within a day) the way a
// production ingestion tier would. The source is a fleet held in memory
// (FleetReplayer) or one generated a chunk of drives at a time
// (StreamedFleet); the sink is a ScoringEngine, a net::ShardRouter, or a
// net client feeding a server. Resume skips, crash injection, graceful
// cancel and the day hook live in feed() and nowhere else. Shared by the
// CLI, the streaming example and the tests.
#pragma once

#include <csignal>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/mfpa.hpp"
#include "core/online_predictor.hpp"
#include "serve/model_registry.hpp"
#include "serve/record_sink.hpp"
#include "serve/scoring_engine.hpp"
#include "sim/fleet.hpp"

namespace mfpa::serve {

/// Everything a replay measured, ready for a table or a JSON bench row.
struct ReplayReport {
  double wall_seconds = 0.0;      ///< feed start until the sink's barrier
  double records_per_sec = 0.0;   ///< submitted / wall_seconds
  std::size_t days_replayed = 0;  ///< day passes (per chunk when streamed)
  std::size_t records_skipped = 0;   ///< resumed past (already durable)
  std::size_t records_submitted = 0; ///< submitted by this run
  std::size_t chunks = 0;            ///< source chunks fed
  bool interrupted = false;  ///< the cancel flag or the kill hook stopped it
  SinkTotals totals;         ///< the sink's barrier; zero when interrupted
  /// (drive id, failed) of every drive the source delivered — the ground
  /// truth `drives` is scored against.
  std::vector<std::pair<std::uint64_t, bool>> drive_flags;
  // Read from the sink's owner after the feed (FleetReplayer::replay,
  // net::replay_router).
  EngineStats engine;
  StoreStats store;
  std::vector<core::Alert> alerts;
  core::DriveLevelMetrics drives;  ///< vs simulator ground truth
};

/// Drive-level verdicts for an alert stream against simulator truth: a
/// failed drive is detected if it has any alert; a healthy drive with any
/// alert is a false alarm.
core::DriveLevelMetrics drive_level(
    const std::vector<core::Alert>& alerts,
    const std::vector<std::pair<std::uint64_t, bool>>& drive_flags);

/// Called at the start of each replay day (before that day's records are
/// submitted) — the hook hot-swap demos and mid-replay retraining use.
using DayHook = std::function<void(DayIndex day)>;

/// Knobs for one feed.
struct ReplayOptions {
  DayHook on_day;
  /// Resume: records to skip of each shard's substream, indexed by
  /// drive_shard(drive id, skip_records.size()). A resuming process passes
  /// its sinks' durable counts — {ScoringEngine::durable_resume_records()}
  /// for one engine (the one-shard case), ShardRouter::resume_records() or
  /// the shard processes' published counts for a sharded topology — so the
  /// feed re-delivers exactly each shard's not-yet-durable suffix. Empty
  /// skips nothing.
  std::vector<std::size_t> skip_records;
  /// After submitting this many records (0 = never) call `on_kill` and stop
  /// feeding, so the delivered prefix is exact. Without an `on_kill` the
  /// feed raises SIGKILL instead: no flush, no destructors — as close to
  /// power loss as a process can get (the crash-recovery tests).
  std::size_t kill_after_records = 0;
  std::function<void()> on_kill;
  /// Graceful-shutdown flag (a signal handler sets it), checked between
  /// submissions. A feed stopped by it or by `on_kill` skips the sink's
  /// barrier; the sink's owner drains what was delivered (stop() does).
  const volatile std::sig_atomic_t* cancel = nullptr;
};

/// Trains an MfpaPipeline on the given telemetry/tickets and publishes the
/// fitted model (classifier + firmware vocabulary + tuned threshold) to the
/// registry. Returns the published version.
int train_and_publish(ModelRegistry& registry, const core::MfpaConfig& config,
                      const std::vector<sim::DriveTimeSeries>& telemetry,
                      const std::vector<sim::TroubleTicket>& tickets);

class FleetReplayer;

/// A deterministic arrival order, delivered in chunks; each chunk is a
/// FleetReplayer over that chunk's telemetry.
class ArrivalSource {
 public:
  virtual ~ArrivalSource() = default;
  ArrivalSource() = default;
  ArrivalSource(const ArrivalSource&) = delete;
  ArrivalSource& operator=(const ArrivalSource&) = delete;

  /// Hands each chunk to `deliver` in order until it returns false.
  virtual void for_each_chunk(
      const std::function<bool(const FleetReplayer&)>& deliver) const = 0;
};

/// A fleet held in memory: one chunk.
class FleetReplayer final : public ArrivalSource {
 public:
  /// One record of the deterministic arrival order: day-major, drive id
  /// ascending within a day — the order a collection front end would see a
  /// fleet's daily uploads.
  struct Arrival {
    DayIndex day = 0;
    std::uint64_t drive_id = 0;
    int vendor = 0;
    const sim::DailyRecord* record = nullptr;
  };

  /// Borrows the telemetry (must outlive the replayer); flattens it into
  /// the deterministic arrival order once.
  explicit FleetReplayer(const std::vector<sim::DriveTimeSeries>& telemetry);

  const std::vector<Arrival>& arrivals() const noexcept { return order_; }
  const std::vector<sim::DriveTimeSeries>& telemetry() const noexcept {
    return *telemetry_;
  }

  std::size_t total_records() const noexcept { return order_.size(); }
  DayIndex first_day() const noexcept { return first_day_; }
  DayIndex last_day() const noexcept { return last_day_; }

  void for_each_chunk(const std::function<bool(const FleetReplayer&)>& deliver)
      const override {
    deliver(*this);
  }

  /// Feeds every record into the engine at maximum rate, then snapshots
  /// the engine/store accounting and the engine's alert stream, evaluated
  /// drive-level against the simulator's failure flags.
  ReplayReport replay(ScoringEngine& engine,
                      const ReplayOptions& options = {}) const;

 private:
  const std::vector<sim::DriveTimeSeries>* telemetry_;
  std::vector<Arrival> order_;
  DayIndex first_day_ = 0;
  DayIndex last_day_ = 0;
};

/// A fleet scenario generated `chunk_drives` tracked drives at a time and
/// freed after feeding, so peak telemetry memory is one chunk at any fleet
/// scale. Per-drive record order is chunk-invariant, so the alert stream
/// matches an unchunked replay; the interleaving across drives — and with
/// it the resume offsets — depends on chunk_drives, so a resume must reuse
/// it.
class StreamedFleet final : public ArrivalSource {
 public:
  /// Borrows the simulator. `generation_threads` per chunk (0 = hardware
  /// concurrency). Throws std::invalid_argument when chunk_drives is 0.
  StreamedFleet(sim::FleetSimulator& fleet, std::size_t chunk_drives,
                std::size_t generation_threads = 1);

  /// Tracked drives, counted before drives without records are dropped.
  std::size_t drives_tracked() const noexcept { return tracked_.size(); }

  void for_each_chunk(const std::function<bool(const FleetReplayer&)>& deliver)
      const override;

 private:
  sim::FleetSimulator* fleet_;
  std::vector<std::size_t> tracked_;
  std::size_t chunk_drives_;
  std::size_t generation_threads_;
};

/// The feed loop: submits the source's arrivals to the sink, skipping each
/// shard's resume prefix, firing the day hook, honouring the cancel flag
/// and the kill point, then runs the sink's barrier unless interrupted.
/// Fills the feed's own fields of the report (not engine/store/alerts).
ReplayReport feed(const ArrivalSource& source, RecordSink& sink,
                  const ReplayOptions& options = {});

}  // namespace mfpa::serve
