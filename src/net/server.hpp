// Loopback TCP ingestion server for the sharded scoring service.
//
// One poll(2)-driven I/O thread owns every connection: it accepts, reads
// into per-connection buffers, runs each connection's FrameDecoder, and
// hands decoded kRecord messages to a ServerSink — a ShardRouter in the
// scoring processes, a ForwardingSink in the router process. Sink
// submission happens on the I/O thread on purpose — when a shard's queue is
// full, submit() blocks, the I/O thread stops reading, kernel socket
// buffers fill, and the sender's TCP window closes. The engines' bounded
// queues therefore *are* the ingestion tier's backpressure: total in-flight
// bytes are bounded by (shard queues) + (kernel socket buffers) + (one
// partial frame per connection), with no unbounded user-space queue
// anywhere.
//
// Handshake: a kHello carries the client's claimed (shard index, shard
// count, model version); the server validates the claims against its own
// identity, always replies kHelloAck with that identity, and on a mismatch
// flushes the ack and closes — so a misrouted or topology-stale client
// fails fast instead of feeding the wrong shard's state. With
// `require_hello` (the per-shard server processes), any other message
// before a successful handshake also closes the connection. Results are
// counted in mfpa_net_handshakes_total{result=...}; a digest-valid kRecord
// for a drive outside the sink's owned slice bumps
// mfpa_net_misrouted_records_total and closes the connection before any
// state is touched.
//
// Protocol errors (bad magic, oversized length, digest mismatch, malformed
// body) latch the connection's decoder, bump
// mfpa_net_protocol_errors_total{kind=...}, and close that connection —
// other connections and the engines are unaffected.
//
// Shutdown is graceful by design: stop() (or the process's SIGTERM handler
// calling request_stop()) wakes the poll loop via a self-pipe, the loop
// stops accepting, closes idle connections, finishes decoding what was
// already buffered, and returns; the router then drains and seals durable
// state in its own stop(). Binds 127.0.0.1 only — this is the in-process /
// CI harness transport, not an exposed service.
#pragma once

#include <atomic>
#include <csignal>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "net/protocol.hpp"
#include "net/shard_router.hpp"
#include "obs/metrics.hpp"

namespace mfpa::net {

/// Where decoded records go: a record sink (its flush_totals() answers
/// kFlush) that also knows which drives it owns and the identity it
/// asserts. Implemented over the in-process ShardRouter (RouterSink) and by
/// the router process's client fan-out (ForwardingSink,
/// net/forwarding_sink.hpp).
class ServerSink : public serve::RecordSink {
 public:
  /// Whether this sink's slice of the topology owns the drive. A record for
  /// a drive outside the slice is a misroute and never reaches submit().
  virtual bool owns(std::uint64_t /*drive_id*/) const { return true; }
  /// The identity this server asserts in kHelloAck replies.
  virtual Hello identity() const = 0;
};

/// ServerSink over an in-process ShardRouter (full topology or a
/// single-process slice of one).
class RouterSink final : public ServerSink {
 public:
  /// `model_version` is stamped into the handshake identity (0 = wildcard:
  /// version checks are skipped).
  explicit RouterSink(ShardRouter& router, std::uint32_t model_version = 0)
      : router_(&router), model_version_(model_version) {}

  bool submit(const serve::TelemetryUpdate& update) override {
    return router_->submit(update);
  }
  FlushAck flush_totals() override { return router_->flush_totals(); }
  bool owns(std::uint64_t drive_id) const override {
    return router_->owns(drive_id);
  }
  Hello identity() const override;

 private:
  ShardRouter* router_;
  std::uint32_t model_version_;
};

struct ServerConfig {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (tests, the
  /// loopback replay) — read the actual one from IngestServer::port().
  std::uint16_t port = 0;
  /// When true, every connection must open with a compatible kHello before
  /// any other message (the per-shard server processes; misdirected legacy
  /// clients must not feed a shard's state). When false, a kHello is still
  /// validated when sent, but is not required (the in-process loopback
  /// transport and its tests).
  bool require_hello = false;
};

class IngestServer {
 public:
  /// Binds and starts the I/O thread. The sink (and, for the convenience
  /// overload, the router) must outlive the server. Throws
  /// std::runtime_error when the socket cannot be bound.
  IngestServer(ServerSink& sink, ServerConfig config);
  /// Convenience: serves an in-process router under a wildcard handshake
  /// identity (the single-process loopback path).
  IngestServer(ShardRouter& router, ServerConfig config);
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// Actual bound port (resolves port 0).
  std::uint16_t port() const noexcept { return port_; }

  /// Async shutdown request — safe from a signal handler's thread context
  /// (writes one byte to the self-pipe). The poll loop finishes buffered
  /// frames and exits; join with stop().
  void request_stop() noexcept;

  /// Graceful shutdown: request_stop() + join the I/O thread. Idempotent.
  /// Does not stop the router — the owner decides when to drain it.
  void stop();

 private:
  struct Connection;

  ServerSink* sink_;
  std::unique_ptr<RouterSink> owned_sink_;  ///< backs the router overload
  ServerConfig config_;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_requested_{false};
  std::thread io_thread_;

  // mfpa_net_* instruments, resolved once in start() against the registry
  // current at construction; the handshake and protocol-error counters are
  // looked up per event (cold paths).
  struct Metrics {
    obs::Counter* connections = nullptr;
    obs::Gauge* active = nullptr;
    obs::Counter* bytes_received = nullptr;
    obs::Counter* records = nullptr;
    obs::Counter* flushes = nullptr;
    obs::Counter* misrouted = nullptr;
  };
  Metrics metrics_;

  void start();
  void io_loop();
  /// Decodes and dispatches everything buffered on one connection.
  /// Returns false when the connection must close (error or goodbye).
  bool drain_connection(Connection& conn);
  bool handle_hello(Connection& conn, const NetMessage& msg);
  void count_protocol_error(DecodeError error);
};

}  // namespace mfpa::net
