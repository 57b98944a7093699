// IngestServer: loopback end-to-end ingestion, protocol-error accounting
// on hostile bytes, concurrent connections, and idempotent graceful stop.
#include "net/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/wire.hpp"
#include "net/client.hpp"
#include "net/forwarding_sink.hpp"
#include "net/protocol.hpp"
#include "net/sharded_client.hpp"
#include "obs/metrics.hpp"
#include "serve/drive_state_store.hpp"
#include "serve/model_registry.hpp"

namespace mfpa::net {
namespace {
namespace fs = std::filesystem;

fs::path test_dir() {
  return fs::path(::testing::TempDir()) /
         (std::string("mfpa_server_") +
          ::testing::UnitTest::GetInstance()->current_test_info()->name());
}

sim::DailyRecord make_record(DayIndex day) {
  sim::DailyRecord rec;
  rec.day = day;
  for (std::size_t i = 0; i < rec.smart.size(); ++i) {
    rec.smart[i] = static_cast<float>(i + day);
  }
  return rec;
}

std::uint64_t counter_total(const obs::MetricsRegistry& reg,
                            const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& metric : reg.snapshot().metrics) {
    if (metric.name == name) total += metric.counter;
  }
  return total;
}

/// Polls the isolated registry until `name` reaches `want` (the I/O thread
/// updates counters asynchronously) or a generous deadline passes.
std::uint64_t wait_for_counter(const obs::MetricsRegistry& reg,
                               const std::string& name, std::uint64_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::uint64_t seen = counter_total(reg, name);
  while (seen < want && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    seen = counter_total(reg, name);
  }
  return seen;
}

/// A raw loopback socket for speaking deliberately broken protocol.
class RawConnection {
 public:
  explicit RawConnection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }
  void send_bytes(const std::string& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }
  /// True when the peer closed the connection (recv sees EOF).
  bool closed_by_peer() {
    char buf[64];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

 private:
  int fd_ = -1;
};

TEST(IngestServer, LoopbackEndToEndProcessesRecords) {
  auto isolated = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride override_metrics(*isolated);
  serve::ModelRegistry registry(test_dir().string());
  ShardRouterConfig config;
  config.shards = 2;
  ShardRouter router(registry, config);
  IngestServer server(router, {});
  ASSERT_GT(server.port(), 0);

  {
    TelemetryClient client(server.port());
    std::string sent;  // the exact bytes the client puts on the wire
    std::uint64_t seq = 1;
    for (std::uint64_t id = 100; id < 150; ++id) {
      client.send_record(id, 0, make_record(1));
      append_record_frame(sent, seq++, id, 0, make_record(1));
    }
    append_control_frame(sent, seq++, MessageType::kFlush);
    const FlushAck ack = client.sync();
    // The server counted every byte before it answered the flush.
    EXPECT_EQ(counter_total(*isolated, "mfpa_net_bytes_received_total"),
              sent.size());
    EXPECT_EQ(ack.records_processed, 50u);
    EXPECT_EQ(ack.shed, 0u);
    client.close();
  }
  server.stop();
  router.stop();

  EXPECT_EQ(counter_total(*isolated, "mfpa_net_connections_total"), 1u);
  EXPECT_EQ(isolated->gauge("mfpa_net_connections_active").value(), 0.0);
  EXPECT_EQ(counter_total(*isolated, "mfpa_net_records_total"), 50u);
  EXPECT_EQ(counter_total(*isolated, "mfpa_net_flushes_total"), 1u);
  EXPECT_EQ(counter_total(*isolated, "mfpa_net_protocol_errors_total"), 0u);
  EXPECT_EQ(router.stats().records_processed, 50u);
}

TEST(IngestServer, GarbageBytesCloseConnectionAndAreCounted) {
  auto isolated = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride override_metrics(*isolated);
  serve::ModelRegistry registry(test_dir().string());
  ShardRouterConfig config;
  ShardRouter router(registry, config);
  IngestServer server(router, {});

  RawConnection raw(server.port());
  raw.send_bytes("this is not a frame, definitely not 'MFNP'");
  // The server rejects the stream and closes only this connection.
  EXPECT_TRUE(raw.closed_by_peer());
  EXPECT_EQ(wait_for_counter(*isolated, "mfpa_net_protocol_errors_total", 1),
            1u);

  // The server keeps serving well-formed clients afterwards.
  TelemetryClient client(server.port());
  client.send_record(7, 0, make_record(1));
  EXPECT_EQ(client.sync().records_processed, 1u);
  client.close();
  server.stop();
  router.stop();
}

TEST(IngestServer, OversizedFrameRejectedAndCounted) {
  auto isolated = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride override_metrics(*isolated);
  serve::ModelRegistry registry(test_dir().string());
  ShardRouterConfig config;
  ShardRouter router(registry, config);
  IngestServer server(router, {});

  std::string header;
  wire::put_u32(header, kNetFrameMagic);
  wire::put_u32(header, 0xFFFFFFF0U);  // hostile 4 GiB claim
  wire::put_u64(header, 1);
  RawConnection raw(server.port());
  raw.send_bytes(header);
  EXPECT_TRUE(raw.closed_by_peer());
  EXPECT_EQ(wait_for_counter(*isolated, "mfpa_net_protocol_errors_total", 1),
            1u);
  bool saw_oversized_label = false;
  for (const auto& metric : isolated->snapshot().metrics) {
    if (metric.name != "mfpa_net_protocol_errors_total") continue;
    for (const auto& [k, v] : metric.labels) {
      if (k == "kind" && v == "oversized") saw_oversized_label = true;
    }
  }
  EXPECT_TRUE(saw_oversized_label);
  server.stop();
  router.stop();
}

TEST(IngestServer, BitFlippedPayloadIsRejectedByDigest) {
  auto isolated = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride override_metrics(*isolated);
  serve::ModelRegistry registry(test_dir().string());
  ShardRouterConfig config;
  ShardRouter router(registry, config);
  IngestServer server(router, {});

  std::string frame;
  append_record_frame(frame, 1, 42, 0, make_record(2));
  frame[frame.size() / 2] ^= 0x04;  // corrupt mid-payload
  RawConnection raw(server.port());
  raw.send_bytes(frame);
  EXPECT_TRUE(raw.closed_by_peer());
  EXPECT_EQ(wait_for_counter(*isolated, "mfpa_net_protocol_errors_total", 1),
            1u);
  // The corrupt record never reached a shard.
  router.flush();
  EXPECT_EQ(router.stats().records_processed, 0u);
  server.stop();
  router.stop();
}

TEST(IngestServer, ServesMultipleConnections) {
  auto isolated = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride override_metrics(*isolated);
  serve::ModelRegistry registry(test_dir().string());
  ShardRouterConfig config;
  config.shards = 4;
  ShardRouter router(registry, config);
  IngestServer server(router, {});

  TelemetryClient a(server.port());
  TelemetryClient b(server.port());
  for (std::uint64_t i = 0; i < 30; ++i) {
    a.send_record(1000 + i, 0, make_record(1));
    b.send_record(2000 + i, 1, make_record(1));
  }
  a.sync();
  b.sync();
  a.close();
  b.close();
  server.stop();
  router.stop();
  EXPECT_EQ(counter_total(*isolated, "mfpa_net_connections_total"), 2u);
  EXPECT_EQ(isolated->gauge("mfpa_net_connections_active").value(), 0.0);
  EXPECT_EQ(router.stats().records_processed, 60u);
}

TEST(IngestServer, StopIsGracefulAndIdempotent) {
  serve::ModelRegistry registry(test_dir().string());
  ShardRouterConfig config;
  ShardRouter router(registry, config);
  IngestServer server(router, {});
  TelemetryClient client(server.port());
  client.send_record(5, 0, make_record(1));
  client.sync();  // everything sent is processed before we stop
  client.close();
  server.request_stop();
  server.stop();
  server.stop();  // second stop is a no-op
  router.flush();
  EXPECT_EQ(router.stats().records_processed, 1u);
  router.stop();
}

TEST(IngestServer, HandshakeAcceptsMatchingClaimAndReportsIdentity) {
  auto isolated = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride override_metrics(*isolated);
  serve::ModelRegistry registry(test_dir().string());
  // A process-local slice: this server owns global shard 2 of 4.
  ShardRouterConfig config;
  config.shards = 1;
  config.first_shard = 2;
  config.topology_shards = 4;
  ShardRouter router(registry, config);
  RouterSink sink(router, /*model_version=*/7);
  ServerConfig server_config;
  server_config.require_hello = true;
  IngestServer server(sink, server_config);

  TelemetryClient client(server.port());
  Hello claim;
  claim.shard_index = 2;
  claim.shard_count = 4;
  claim.model_version = 7;
  const Hello identity = client.handshake(claim);
  EXPECT_EQ(identity.shard_index, 2u);
  EXPECT_EQ(identity.shard_count, 4u);
  EXPECT_EQ(identity.model_version, 7u);

  // The handshaken connection serves records for the owned slice.
  std::uint64_t owned = 0;
  while (serve::drive_shard(owned, 4) != 2) ++owned;
  client.send_record(owned, 0, make_record(1));
  EXPECT_EQ(client.sync().records_processed, 1u);
  client.close();
  server.stop();
  router.stop();

  bool saw_ok = false;
  for (const auto& metric : isolated->snapshot().metrics) {
    if (metric.name != "mfpa_net_handshakes_total") continue;
    for (const auto& [k, v] : metric.labels) {
      if (k == "result" && v == "ok") saw_ok = metric.counter == 1;
    }
  }
  EXPECT_TRUE(saw_ok);
}

TEST(IngestServer, HandshakeRejectsWrongShardTopologyAndVersion) {
  auto isolated = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride override_metrics(*isolated);
  serve::ModelRegistry registry(test_dir().string());
  ShardRouterConfig config;
  config.shards = 1;
  config.first_shard = 1;
  config.topology_shards = 4;
  ShardRouter router(registry, config);
  RouterSink sink(router, /*model_version=*/3);
  ServerConfig server_config;
  server_config.require_hello = true;
  IngestServer server(sink, server_config);

  struct Case {
    std::uint32_t index, count, version;
    const char* label;
  };
  const Case cases[] = {
      {2, 4, 3, "shard_mismatch"},     // wrong shard index
      {1, 8, 3, "topology_mismatch"},  // wrong shard count
      {1, 4, 9, "version_mismatch"},   // stale model version
  };
  for (const auto& c : cases) {
    TelemetryClient client(server.port());
    Hello claim;
    claim.shard_index = c.index;
    claim.shard_count = c.count;
    claim.model_version = c.version;
    // The server's ack names its own identity, so the client throws with
    // the disagreeing field.
    EXPECT_THROW(client.handshake(claim), std::runtime_error) << c.label;
  }
  server.stop();
  router.stop();

  std::uint64_t rejections = 0;
  for (const auto& metric : isolated->snapshot().metrics) {
    if (metric.name != "mfpa_net_handshakes_total") continue;
    for (const auto& [k, v] : metric.labels) {
      if (k == "result" && v != "ok") rejections += metric.counter;
    }
  }
  EXPECT_EQ(rejections, 3u);
}

TEST(IngestServer, RequireHelloRejectsUnintroducedRecords) {
  auto isolated = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride override_metrics(*isolated);
  serve::ModelRegistry registry(test_dir().string());
  ShardRouterConfig config;
  ShardRouter router(registry, config);
  RouterSink sink(router);
  ServerConfig server_config;
  server_config.require_hello = true;
  IngestServer server(sink, server_config);

  // A legacy client that skips the handshake: first record closes the
  // connection and nothing reaches the shard.
  std::string frame;
  append_record_frame(frame, 1, 42, 0, make_record(1));
  RawConnection raw(server.port());
  raw.send_bytes(frame);
  EXPECT_TRUE(raw.closed_by_peer());
  server.stop();
  router.flush();
  EXPECT_EQ(router.stats().records_processed, 0u);
  router.stop();

  bool saw_missing = false;
  for (const auto& metric : isolated->snapshot().metrics) {
    if (metric.name != "mfpa_net_handshakes_total") continue;
    for (const auto& [k, v] : metric.labels) {
      if (k == "result" && v == "missing") saw_missing = true;
    }
  }
  EXPECT_TRUE(saw_missing);
}

TEST(IngestServer, MisroutedRecordClosesConnectionBeforeAnyState) {
  auto isolated = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride override_metrics(*isolated);
  serve::ModelRegistry registry(test_dir().string());
  ShardRouterConfig config;
  config.shards = 1;
  config.first_shard = 0;
  config.topology_shards = 4;
  ShardRouter router(registry, config);
  RouterSink sink(router);
  IngestServer server(sink, {});

  std::uint64_t foreign = 0;
  while (serve::drive_shard(foreign, 4) == 0) ++foreign;
  std::string frame;
  append_record_frame(frame, 1, foreign, 0, make_record(1));
  RawConnection raw(server.port());
  raw.send_bytes(frame);
  EXPECT_TRUE(raw.closed_by_peer());
  EXPECT_EQ(
      wait_for_counter(*isolated, "mfpa_net_misrouted_records_total", 1), 1u);
  server.stop();
  router.flush();
  EXPECT_EQ(router.stats().records_processed, 0u);
  router.stop();
}

TEST(ShardedClient, RoutesEveryRecordToItsOwningShardProcessAnalogue) {
  // Four single-shard sliced routers behind four servers — the in-test
  // analogue of four shard-serve processes — fed by one ShardedClient.
  auto isolated = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride override_metrics(*isolated);
  serve::ModelRegistry registry(test_dir().string());
  constexpr std::size_t kShards = 4;
  std::vector<std::unique_ptr<ShardRouter>> routers;
  std::vector<std::unique_ptr<RouterSink>> sinks;
  std::vector<std::unique_ptr<IngestServer>> servers;
  ShardedClientConfig client_config;
  for (std::size_t k = 0; k < kShards; ++k) {
    ShardRouterConfig config;
    config.shards = 1;
    config.first_shard = k;
    config.topology_shards = kShards;
    routers.push_back(std::make_unique<ShardRouter>(registry, config));
    sinks.push_back(std::make_unique<RouterSink>(*routers.back()));
    ServerConfig server_config;
    server_config.require_hello = true;
    servers.push_back(
        std::make_unique<IngestServer>(*sinks.back(), server_config));
    client_config.ports.push_back(servers.back()->port());
  }

  ShardedClient client(client_config);
  constexpr std::uint64_t kDrives = 200;
  std::vector<std::uint64_t> expected(kShards, 0);
  for (std::uint64_t id = 0; id < kDrives; ++id) {
    client.send_record(id, 0, make_record(1));
    ++expected[serve::drive_shard(id, kShards)];
  }
  const FlushAck ack = client.sync();
  EXPECT_EQ(ack.records_processed, kDrives);
  EXPECT_EQ(client.records_sent(), kDrives);
  client.close();

  // Every shard processed exactly its hash slice — the fan-out is the
  // same partition an in-process ShardRouter would produce.
  for (std::size_t k = 0; k < kShards; ++k) {
    servers[k]->stop();
    routers[k]->flush();
    EXPECT_EQ(routers[k]->stats().records_processed, expected[k])
        << "shard " << k;
    routers[k]->stop();
  }
}

TEST(ShardedClient, WildcardClaimFeedsThroughForwardingRouter) {
  // Router-process topology in miniature: shard servers behind a
  // ForwardingSink server, fed by a client that claims the wildcard
  // identity (one connection is not the topology).
  auto isolated = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride override_metrics(*isolated);
  serve::ModelRegistry registry(test_dir().string());
  constexpr std::size_t kShards = 2;
  std::vector<std::unique_ptr<ShardRouter>> routers;
  std::vector<std::unique_ptr<RouterSink>> sinks;
  std::vector<std::unique_ptr<IngestServer>> servers;
  ShardedClientConfig downstream_config;
  for (std::size_t k = 0; k < kShards; ++k) {
    ShardRouterConfig config;
    config.shards = 1;
    config.first_shard = k;
    config.topology_shards = kShards;
    routers.push_back(std::make_unique<ShardRouter>(registry, config));
    sinks.push_back(std::make_unique<RouterSink>(*routers.back()));
    ServerConfig server_config;
    server_config.require_hello = true;
    servers.push_back(
        std::make_unique<IngestServer>(*sinks.back(), server_config));
    downstream_config.ports.push_back(servers.back()->port());
  }
  ShardedClient downstream(downstream_config);
  ForwardingSink forward(downstream);
  IngestServer router_server(forward, {});

  ShardedClientConfig feed_config;
  feed_config.ports = {router_server.port()};
  feed_config.claim_topology = false;
  ShardedClient feed(feed_config);
  for (std::uint64_t id = 0; id < 100; ++id) {
    feed.send_record(id, 0, make_record(2));
  }
  EXPECT_EQ(feed.sync().records_processed, 100u);
  feed.close();
  router_server.stop();
  downstream.close();

  std::uint64_t total = 0;
  for (std::size_t k = 0; k < kShards; ++k) {
    servers[k]->stop();
    routers[k]->flush();
    total += routers[k]->stats().records_processed;
    routers[k]->stop();
  }
  EXPECT_EQ(total, 100u);
}

}  // namespace
}  // namespace mfpa::net
