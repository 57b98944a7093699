// Shard-aware fan-out client: one TelemetryClient per shard endpoint, with
// records routed locally by the same Fibonacci drive-id hash
// (serve::drive_shard) the servers shard by. This drops the router hop — a
// record travels client → owning shard directly, instead of client →
// router → shard — at the cost of the client knowing the topology. That
// knowledge is verified, not assumed: every connection opens with a kHello
// claiming (shard index, topology size, expected model version), so a
// stale port map, a resharded fleet, or a mid-rollout model skew fails at
// connect time with the disagreeing field named, rather than as silent
// misrouted state. The per-shard servers enforce the same contract from
// their side (require_hello + per-record owns() checks).
//
// sync() barriers every shard and sums the per-shard FlushAck totals; with
// each drive owned by exactly one shard the sums are exact fleet totals.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/client.hpp"
#include "net/protocol.hpp"

namespace mfpa::net {

struct ShardedClientConfig {
  /// Per-shard server ports, indexed by GLOBAL shard index; size() is the
  /// topology's shard count.
  std::vector<std::uint16_t> ports;
  /// Model version every shard must be serving (0 skips the check).
  std::uint32_t model_version = 0;
  /// When false, connections claim the wildcard identity instead of
  /// (index, ports.size()) — for feeding through a forwarding router
  /// endpoint, where the connection count is not the fleet topology and a
  /// concrete claim would be a lie the handshake rightly rejects.
  bool claim_topology = true;
};

class ShardedClient final : public serve::RecordSink {
 public:
  /// Connects and handshakes every shard. Throws std::runtime_error when a
  /// connection fails or any shard's kHelloAck contradicts the claimed
  /// (index, topology, model version).
  explicit ShardedClient(ShardedClientConfig config);

  std::size_t shard_count() const noexcept { return clients_.size(); }

  /// Routes one record to its owning shard's connection.
  void send_record(std::uint64_t drive_id, int vendor,
                   const sim::DailyRecord& record);

  /// Flushes every shard's send buffer without a barrier.
  void flush_buffers();

  /// Barrier across the fleet: kFlush to every shard, per-shard acks summed
  /// into fleet totals.
  FlushAck sync();

  /// RecordSink: send_record(); the barrier flushes every shard's buffer
  /// before awaiting any ack, so the shards drain in parallel.
  bool submit(const serve::TelemetryUpdate& update) override {
    send_record(update.drive_id, update.vendor, update.record);
    return true;
  }
  FlushAck flush_totals() override {
    flush_buffers();
    return sync();
  }

  /// Orderly kGoodbye + close on every shard. Idempotent.
  void close();

  std::uint64_t records_sent() const noexcept { return records_sent_; }

 private:
  std::vector<std::unique_ptr<TelemetryClient>> clients_;
  std::uint64_t records_sent_ = 0;
};

}  // namespace mfpa::net
