#include "net/fleet_replay.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <string>

#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "serve/drive_state_store.hpp"

namespace mfpa::net {
namespace {

serve::StoreStats merge_store_stats(const ShardRouter& router) {
  serve::StoreStats merged;
  for (std::size_t i = 0; i < router.shard_count(); ++i) {
    const serve::StoreStats s = router.shard(i).store().stats();
    merged.drives_tracked += s.drives_tracked;
    merged.drives_quarantined += s.drives_quarantined;
    merged.records_ingested += s.records_ingested;
    merged.rows_emitted += s.rows_emitted;
    merged.segments_restarted += s.segments_restarted;
    merged.ingest.merge(s.ingest);
  }
  return merged;
}

std::uint64_t protocol_error_total() {
  std::uint64_t total = 0;
  for (const auto& metric : obs::registry().snapshot().metrics) {
    if (metric.name == "mfpa_net_protocol_errors_total") {
      total += metric.counter;
    }
  }
  return total;
}

}  // namespace

ShardedReplayReport replay_router(ShardRouter& router,
                                  const serve::ArrivalSource& source,
                                  const serve::ReplayOptions& options,
                                  Transport transport) {
  if (!options.skip_records.empty() &&
      options.skip_records.size() != router.shard_count()) {
    throw std::invalid_argument(
        "replay_router: skip_records size (" +
        std::to_string(options.skip_records.size()) +
        ") must match the shard count (" +
        std::to_string(router.shard_count()) + ")");
  }
  ShardedReplayReport out;
  const std::uint64_t errors_before = protocol_error_total();
  if (transport == Transport::kLoopback) {
    IngestServer server(router, {});
    TelemetryClient client(server.port());
    out.replay = serve::feed(source, client, options);
    client.close();
    server.stop();
  } else {
    out.replay = serve::feed(source, router, options);
  }
  router.flush();  // an interrupted feed skipped the barrier
  out.replay.engine = router.stats();
  out.replay.store = merge_store_stats(router);
  out.replay.alerts = router.alerts();
  out.replay.drives =
      serve::drive_level(out.replay.alerts, out.replay.drive_flags);
  out.protocol_errors = protocol_error_total() - errors_before;
  return out;
}

std::vector<core::Alert> merge_alert_files(
    const std::vector<std::string>& paths) {
  std::vector<core::Alert> merged;
  for (const auto& path : paths) {
    std::ifstream in(path);
    if (!in) {
      throw std::runtime_error("merge_alert_files: cannot read " + path);
    }
    std::uint64_t drive_id = 0;
    long day = 0;
    double score = 0.0;
    while (in >> drive_id >> day >> score) {
      core::Alert alert;
      alert.drive_id = drive_id;
      alert.day = static_cast<DayIndex>(day);
      alert.score = score;
      merged.push_back(alert);
    }
    if (!in.eof()) {
      throw std::runtime_error("merge_alert_files: malformed line in " + path);
    }
  }
  // Same total order ShardRouter::alerts() uses: a drive alerts at most
  // once per day and lives on one shard, so (day, drive id) is canonical.
  std::sort(merged.begin(), merged.end(),
            [](const core::Alert& a, const core::Alert& b) {
              if (a.day != b.day) return a.day < b.day;
              return a.drive_id < b.drive_id;
            });
  return merged;
}

}  // namespace mfpa::net
