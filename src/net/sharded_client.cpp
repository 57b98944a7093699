#include "net/sharded_client.hpp"

#include <stdexcept>

#include "serve/drive_state_store.hpp"

namespace mfpa::net {

ShardedClient::ShardedClient(ShardedClientConfig config) {
  if (config.ports.empty()) {
    throw std::invalid_argument("ShardedClient: at least one shard port");
  }
  clients_.reserve(config.ports.size());
  for (std::size_t i = 0; i < config.ports.size(); ++i) {
    auto client = std::make_unique<TelemetryClient>(config.ports[i]);
    Hello claim;
    if (config.claim_topology) {
      claim.shard_index = static_cast<std::uint32_t>(i);
      claim.shard_count = static_cast<std::uint32_t>(config.ports.size());
    }
    claim.model_version = config.model_version;
    client->handshake(claim);
    clients_.push_back(std::move(client));
  }
}

void ShardedClient::send_record(std::uint64_t drive_id, int vendor,
                                const sim::DailyRecord& record) {
  const std::size_t shard = serve::drive_shard(drive_id, clients_.size());
  clients_[shard]->send_record(drive_id, vendor, record);
  ++records_sent_;
}

void ShardedClient::flush_buffers() {
  for (auto& client : clients_) client->flush_buffer();
}

FlushAck ShardedClient::sync() {
  FlushAck total;
  for (auto& client : clients_) {
    const FlushAck ack = client->sync();
    total.records_processed += ack.records_processed;
    total.alerts += ack.alerts;
    total.shed += ack.shed;
  }
  return total;
}

void ShardedClient::close() {
  for (auto& client : clients_) client->close();
}

}  // namespace mfpa::net
