// ServerSink that forwards to the per-shard server processes through a
// ShardedClient — the router-process mode (`mfpa shard-route`). A
// shard-oblivious client connects to one router endpoint exactly as it
// would a single-process server; the router re-frames each record onto the
// owning shard's connection. This buys topology transparency for one extra
// hop; shard-aware clients (ShardedClient) skip the hop entirely.
//
// Only ever called from the fronting IngestServer's single I/O thread, so
// the underlying client needs no locking. Backpressure composes: a slow
// shard blocks the forwarding send, which pauses the router's I/O thread,
// which closes the upstream client's TCP window.
#pragma once

#include "net/server.hpp"
#include "net/sharded_client.hpp"

namespace mfpa::net {

class ForwardingSink final : public ServerSink {
 public:
  /// The sharded client (already connected and handshaken) must outlive
  /// the sink.
  explicit ForwardingSink(ShardedClient& downstream)
      : downstream_(&downstream) {}

  bool submit(const serve::TelemetryUpdate& update) override {
    return downstream_->submit(update);
  }

  FlushAck flush_totals() override { return downstream_->flush_totals(); }

  // owns() stays the default "everything": the router fronts the whole
  // topology, that is its purpose.

  Hello identity() const override {
    Hello id;  // wildcard shard index — this endpoint answers for any shard
    id.shard_count = static_cast<std::uint32_t>(downstream_->shard_count());
    return id;
  }

 private:
  ShardedClient* downstream_;
};

}  // namespace mfpa::net
