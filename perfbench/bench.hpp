// Shared pieces of the serving benchmark: the fixed thread budget, the
// engine configurations every pass uses, the canonical alert-stream text
// the output check compares, and the in-memory span recorder of the traced
// run. See perfbench/README.md for the workloads and metrics.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/online_predictor.hpp"
#include "serve/model_registry.hpp"
#include "serve/replay.hpp"
#include "serve/scoring_engine.hpp"

namespace perfbench {

namespace serve = mfpa::serve;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- fixed thread budget ----------------------------------------------------
// Busy threads per workload: memory-large and durable-small run the feeder
// and one drain loop that scores inline (plus a sleeping completion
// observer); openloop-sharded runs the generator, the server's poll thread
// and one drain loop per router shard. None exceeds 4.

/// predict_proba threads (1 = inline on the drain loop).
inline constexpr std::size_t kScoreThreads = 1;
/// DriveStateStore lock stripes per engine.
inline constexpr std::size_t kStoreShards = 4;
/// ShardRouter engines behind the ingest server (openloop-sharded).
inline constexpr std::size_t kRouterShards = 2;
/// Telemetry-generation threads during set-up.
inline constexpr std::size_t kSetupThreads = 4;
/// Micro-batch cap of every engine (the shipped default).
inline constexpr std::size_t kMaxBatch = 256;

/// The in-memory engine every pass starts from (shipped defaults, with the
/// store stripes pinned instead of one per core).
serve::EngineConfig engine_config(const std::string& label);

/// The shipped durability defaults rooted at `dir`: fsync on, group commit
/// 256, a checkpoint every 4096 records, 4 WAL shards.
serve::DurabilityConfig durable_config(const std::filesystem::path& dir);

/// One alert per line as "<day> <drive id> <score %.17g>", sorted by
/// (day, drive id) — the order a sharded deployment merges into.
std::string canonical_alerts(std::vector<mfpa::core::Alert> alerts);

// --- spans --------------------------------------------------------------------

/// Spans kept in memory for one traced pass. A span's parent is the span
/// open on the recorder when it started; its self time is its duration
/// minus the time its children cover.
class SpanRecorder {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNoParent = 0xFFFFFFFFu;

  Id open(const char* name);
  void close(Id id);
  /// Re-labels a closed span (a WAL append that turned out to fsync).
  void rename(Id id, const char* name) { spans_[id].name = name; }

  /// Self seconds summed per span name.
  std::map<std::string, double> self_seconds() const;
  /// Summed duration of the root spans (the traced wall time).
  double root_seconds() const;
  /// Chrome trace-event JSON of every span (microseconds since the first).
  void write_chrome_trace(const std::filesystem::path& path) const;

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    Id parent;
  };
  std::vector<Span> spans_;
  std::vector<Id> stack_;
};

/// RAII span; a null recorder records nothing (the untraced layer pass).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), id_(recorder ? recorder->open(name) : 0) {}
  ~ScopedSpan() {
    if (recorder_) recorder_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  SpanRecorder::Id id() const noexcept { return id_; }

 private:
  SpanRecorder* recorder_;
  SpanRecorder::Id id_;
};

// --- traced layer pass ----------------------------------------------------------

enum class Kind { kMemory, kDurable, kOpenLoop };

struct LayerPassInput {
  Kind kind = Kind::kMemory;
  const std::vector<mfpa::serve::FleetReplayer::Arrival>* arrivals = nullptr;
  const mfpa::serve::ServedModel* model = nullptr;
  /// Records per process_batch call (per shard for kOpenLoop).
  std::size_t batch = kMaxBatch;
  /// kDurable: durable root, and the record count at which the crash image
  /// is copied before the restart.
  std::filesystem::path dir;
  std::size_t crash_at = 0;
};

/// Counts read at the layer boundaries of one layer pass.
struct LayerCounts {
  std::uint64_t records = 0;          ///< records offered
  std::uint64_t ingested = 0;         ///< DriveStateStore::ingest calls
  std::uint64_t rejected = 0;
  std::uint64_t rows = 0;             ///< rows emitted for scoring
  std::uint64_t predict_calls = 0;
  std::uint64_t alerts = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t ckpt_writes = 0;
  std::uint64_t ckpt_bytes = 0;
  std::uint64_t tail_records = 0;     ///< WAL tail replayed at the restart
  std::uint64_t net_bytes = 0;        ///< MFNP frame bytes encoded
  std::uint64_t net_decoded = 0;      ///< records decoded back
};

struct LayerPassResult {
  std::string alerts;          ///< canonical alert stream of the feed
  std::string restart_alerts;  ///< kDurable: the stream after the restart
  double wall_s = 0.0;     ///< summed root-span time (timed the same untraced)
  LayerCounts counts;
};

/// Calls each layer's public function itself, in ScoringEngine::
/// process_batch order, over the workload's whole record stream. With a
/// recorder every layer call is wrapped in a span; without one the same
/// calls run bare, which times the untraced wall for trace.overhead_frac.
LayerPassResult run_layer_pass(const LayerPassInput& input,
                               SpanRecorder* recorder);

}  // namespace perfbench
