// Sharded replay: the serve::feed loop driving a ShardRouter, in-process
// (`serve-replay --shards=N`, `fleet-replay --in-process`, the alert-parity
// tests) or over the loopback binary protocol (`fleet-replay`: the full
// encode → TCP → decode → route chain), plus the canonical merge of the
// per-shard alert files a multi-process topology writes.
//
// Resume protocol: each shard recovers independently, so "how much is
// already durable" is a per-shard count (ShardRouter::resume_records()),
// not a single stream offset, and the feed skips each shard's durable
// prefix of its own substream. Routing is a pure function of drive id and
// shard count, and each substream's order follows the telemetry chunking,
// so a resume must use the crashed run's shard count and chunking: the CLI
// records both in `<durable root>/TOPOLOGY` on the first durable run and
// refuses (exit 2) a resume whose values differ.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/shard_router.hpp"
#include "serve/replay.hpp"

namespace mfpa::net {

/// How replay_router reaches the router.
enum class Transport {
  kInProcess,  ///< ShardRouter::submit
  kLoopback,   ///< TelemetryClient → IngestServer on an ephemeral port
};

/// What a sharded replay measured. `replay` aggregates across shards;
/// alerts are in the canonical fleet order (day, drive id).
struct ShardedReplayReport {
  serve::ReplayReport replay;          ///< merged totals + merged alerts
  std::uint64_t protocol_errors = 0;   ///< loopback runs only
};

/// Feeds `source` into the router over `transport` and reads the merged
/// accounting back once every shard has drained. Throws
/// std::invalid_argument when options.skip_records is neither empty nor
/// one count per shard.
ShardedReplayReport replay_router(
    ShardRouter& router, const serve::ArrivalSource& source,
    const serve::ReplayOptions& options = {},
    Transport transport = Transport::kInProcess);

/// Parses and merges per-shard alert files (the `write_alerts_file` CLI
/// format: "<drive_id> <day> <score>" per line) into the canonical fleet
/// order (day, drive id). Scores survive the %.17g round-trip exactly, so
/// re-serializing the merge is byte-identical to a single-process run's
/// alert file. Throws std::runtime_error on an unreadable or malformed
/// file.
std::vector<core::Alert> merge_alert_files(
    const std::vector<std::string>& paths);

}  // namespace mfpa::net
