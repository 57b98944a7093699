// The one interface records flow through. A replay feed (serve/replay.hpp)
// or an ingest server (net/server.hpp) hands each record to a RecordSink:
// a ScoringEngine or a net::ShardRouter applies it in process, a
// net::TelemetryClient or net::ShardedClient carries it over the wire to a
// server, which hands it to a sink of its own.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/telemetry.hpp"

namespace mfpa::serve {

/// Shard index for a drive id under `shards` shards: a Fibonacci hash that
/// spreads sequential drive ids. net::ShardRouter, net::ShardedClient and
/// feed()'s per-shard resume all route with it, so one drive always lands
/// on one shard — the only ordering the alert-stream parity contract needs.
inline std::size_t drive_shard(std::uint64_t drive_id,
                               std::size_t shards) noexcept {
  return static_cast<std::size_t>((drive_id * 0x9E3779B97F4A7C15ULL) % shards);
}

/// One queued unit of work: a drive's daily upload.
struct TelemetryUpdate {
  std::uint64_t drive_id = 0;
  int vendor = 0;
  sim::DailyRecord record;
};

/// What a sink has applied as of a barrier — also the body of the wire
/// protocol's kFlushAck reply (net::FlushAck).
struct SinkTotals {
  std::uint64_t records_processed = 0;
  std::uint64_t alerts = 0;
  std::uint64_t shed = 0;
};

class RecordSink {
 public:
  virtual ~RecordSink() = default;
  RecordSink() = default;
  RecordSink(const RecordSink&) = delete;
  RecordSink& operator=(const RecordSink&) = delete;

  /// Delivers one record; may block (backpressure). Returns false only when
  /// the record was shed.
  virtual bool submit(const TelemetryUpdate& update) = 0;

  /// Barrier: returns once everything submitted so far has been applied,
  /// with the totals as of that point.
  virtual SinkTotals flush_totals() = 0;
};

}  // namespace mfpa::serve
