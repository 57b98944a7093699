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

/// Merges `src` into `dst` bin-by-bin. Every shard engine is built from one
/// EngineConfig template, so the histograms share (lo, hi, bins) and the
/// merge is exact to one bin width (midpoints re-land in the same bin).
void merge_histogram(stats::Histogram& dst, const stats::Histogram& src) {
  for (std::size_t i = 0; i < src.bins(); ++i) {
    const std::size_t n = src.bin_count(i);
    if (n > 0) dst.add_count(0.5 * (src.bin_lo(i) + src.bin_hi(i)), n);
  }
}

/// Collapses per-shard engine stats into one fleet-wide EngineStats so the
/// sharded report prints/exports through the exact same code paths as the
/// single-engine one.
serve::EngineStats merge_engine_stats(const RouterStats& router) {
  serve::EngineStats merged;
  bool first = true;
  for (const auto& s : router.shards) {
    merged.submitted += s.submitted;
    merged.accepted += s.accepted;
    merged.shed += s.shed;
    merged.rejected += s.rejected;
    merged.unscored_no_model += s.unscored_no_model;
    merged.records_processed += s.records_processed;
    merged.rows_scored += s.rows_scored;
    merged.synthetic_rows += s.synthetic_rows;
    merged.batches += s.batches;
    merged.alerts += s.alerts;
    merged.model_swaps += s.model_swaps;
    merged.max_queue_depth = std::max(merged.max_queue_depth,
                                      s.max_queue_depth);
    if (first) {
      merged.batch_size = s.batch_size;
      merged.queue_depth = s.queue_depth;
      merged.latency_us = s.latency_us;
      first = false;
    } else {
      merge_histogram(merged.batch_size, s.batch_size);
      merge_histogram(merged.queue_depth, s.queue_depth);
      merge_histogram(merged.latency_us, s.latency_us);
    }
  }
  return merged;
}

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
  out.router = router.stats();
  out.replay.engine = merge_engine_stats(out.router);
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
