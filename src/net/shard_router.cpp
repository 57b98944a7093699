#include "net/shard_router.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <utility>

namespace mfpa::net {
namespace {

std::string shard_dir(const std::string& root, std::size_t index) {
  std::string suffix = std::to_string(index);
  while (suffix.size() < 3) suffix.insert(suffix.begin(), '0');
  return root + "/shard-" + suffix;
}

/// Merges `src` into `dst` bin-by-bin. Every shard engine is built from one
/// EngineConfig template, so the histograms share (lo, hi, bins) and the
/// merge is exact to one bin width (midpoints re-land in the same bin).
void merge_histogram(stats::Histogram& dst, const stats::Histogram& src) {
  for (std::size_t i = 0; i < src.bins(); ++i) {
    const std::size_t n = src.bin_count(i);
    if (n > 0) dst.add_count(0.5 * (src.bin_lo(i) + src.bin_hi(i)), n);
  }
}

}  // namespace

ShardRouter::ShardRouter(const serve::ModelRegistry& registry,
                         ShardRouterConfig config) {
  if (config.shards == 0) {
    throw std::invalid_argument("ShardRouter: shards must be >= 1");
  }
  topology_shards_ =
      config.topology_shards == 0 ? config.shards : config.topology_shards;
  first_shard_ = config.first_shard;
  if (first_shard_ + config.shards > topology_shards_) {
    throw std::invalid_argument(
        "ShardRouter: owned slice [" + std::to_string(first_shard_) + ", " +
        std::to_string(first_shard_ + config.shards) +
        ") exceeds the topology of " + std::to_string(topology_shards_) +
        " shards");
  }
  engines_.reserve(config.shards);
  for (std::size_t i = 0; i < config.shards; ++i) {
    // Labels and durable directories use the GLOBAL shard index, so the
    // on-disk layout (and the metrics namespace) of N single-shard
    // processes is identical to one N-shard process.
    const std::size_t global = first_shard_ + i;
    serve::EngineConfig engine = config.engine;
    engine.instance_label = "shard-" + std::to_string(global);
    engine.durability.dir =
        config.durable_root.empty() ? std::string()
                                    : shard_dir(config.durable_root, global);
    engines_.push_back(
        std::make_unique<serve::ScoringEngine>(registry, std::move(engine)));
  }
}

ShardRouter::~ShardRouter() {
  try {
    stop();
  } catch (...) {
    // Destructor: a failed final checkpoint leaves that shard's WAL
    // authoritative; recovery replays it.
  }
}

bool ShardRouter::submit(const serve::TelemetryUpdate& update) {
  if (!owns(update.drive_id)) {
    throw std::invalid_argument(
        "ShardRouter: drive " + std::to_string(update.drive_id) +
        " belongs to shard " +
        std::to_string(global_shard_of(update.drive_id)) +
        ", outside this router's slice");
  }
  return engines_[shard_of(update.drive_id)]->submit(update);
}

void ShardRouter::flush() {
  for (auto& engine : engines_) engine->flush();
}

serve::SinkTotals ShardRouter::flush_totals() {
  flush();
  const serve::EngineStats s = stats();
  return {s.records_processed, s.alerts, s.shed};
}

void ShardRouter::stop() {
  std::exception_ptr first;
  for (auto& engine : engines_) {
    try {
      engine->stop();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

std::vector<std::size_t> ShardRouter::resume_records() const {
  std::vector<std::size_t> counts;
  counts.reserve(engines_.size());
  for (const auto& engine : engines_) {
    counts.push_back(static_cast<std::size_t>(engine->durable_resume_records()));
  }
  return counts;
}

std::vector<core::Alert> ShardRouter::alerts() const {
  std::vector<core::Alert> merged;
  for (const auto& engine : engines_) {
    auto shard_alerts = engine->alerts();
    merged.insert(merged.end(), shard_alerts.begin(), shard_alerts.end());
  }
  // Canonical fleet order. A drive alerts at most once per day, and a drive
  // lives on exactly one shard, so (day, drive id) is a total order and the
  // merge is independent of the shard count.
  std::sort(merged.begin(), merged.end(),
            [](const core::Alert& a, const core::Alert& b) {
              if (a.day != b.day) return a.day < b.day;
              return a.drive_id < b.drive_id;
            });
  return merged;
}

serve::EngineStats ShardRouter::stats() const {
  serve::EngineStats merged = engines_.front()->stats();
  for (std::size_t i = 1; i < engines_.size(); ++i) {
    const serve::EngineStats s = engines_[i]->stats();
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
    merge_histogram(merged.batch_size, s.batch_size);
    merge_histogram(merged.latency_us, s.latency_us);
  }
  return merged;
}

}  // namespace mfpa::net
