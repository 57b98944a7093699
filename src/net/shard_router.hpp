// Drive-hash router over N in-process scoring engines.
//
// The paper's deployment scores ~2.3M drives; a single micro-batched
// ScoringEngine drain loop eventually saturates one core, so the serving
// tier shards: each engine owns its own DriveStateStore, alert-policy
// state, and (optionally) its own durable WAL + checkpoint directory, and
// drives are routed by a Fibonacci drive-id hash (serve::drive_shard). The
// router is the only layer that maps drives to shards: inside a shard the
// engine keeps one state map and one WAL file per generation. A drive's
// records therefore always land on the same shard in submission order,
// which is the only ordering the batch/online parity contract needs — so
// the merged alert stream is identical for every shard count, proven by
// tests/integration/test_fleet_serving.cpp.
//
// Backpressure composes with the engines': submit() routes to the owning
// shard and blocks (or sheds, under shed_on_full) exactly as that engine's
// queue dictates. The net server calls submit() from its poll loop, turning
// a full shard queue into TCP backpressure on the ingesting connection.
//
// Durability: with `durable_root` set, shard i recovers from and logs to
// `<durable_root>/shard-NNN`. resume_records() reports each shard's
// durably applied record count; a resuming feed skips exactly that many
// records *of that shard's substream* (see serve::ReplayOptions).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/online_predictor.hpp"
#include "serve/model_registry.hpp"
#include "serve/scoring_engine.hpp"

namespace mfpa::net {

struct ShardRouterConfig {
  /// Engine instances owned by THIS router; must be >= 1.
  std::size_t shards = 1;
  /// Template configuration applied to every shard. `instance_label` and
  /// `durability.dir` are overwritten per shard.
  serve::EngineConfig engine;
  /// Per-shard durable directories `<durable_root>/shard-NNN` (NNN is the
  /// GLOBAL shard index); empty disables durability regardless of the
  /// template.
  std::string durable_root;
  /// Total shards in the fleet topology (0 = `shards`, the single-process
  /// case). A multi-process deployment runs one router per process with
  /// `shards = 1`, `first_shard = k`, `topology_shards = N`: drive routing
  /// hashes over the full topology, while this router owns only its slice.
  std::size_t topology_shards = 0;
  /// Global index of this router's first owned shard.
  std::size_t first_shard = 0;
};

class ShardRouter final : public serve::RecordSink {
 public:
  /// Constructs every shard engine (recovering each from its durable
  /// directory when durable_root is set). The registry must outlive the
  /// router. Throws std::invalid_argument for shards == 0.
  ShardRouter(const serve::ModelRegistry& registry, ShardRouterConfig config);
  ~ShardRouter() override;

  std::size_t shard_count() const noexcept { return engines_.size(); }
  /// Total shards in the topology this router routes within (== shard_count
  /// unless this router is a process-local slice).
  std::size_t topology_shards() const noexcept { return topology_shards_; }
  /// Global index of the first shard this router owns.
  std::size_t first_shard() const noexcept { return first_shard_; }

  /// Global shard index of a drive within the full topology.
  std::size_t global_shard_of(std::uint64_t drive_id) const noexcept {
    return serve::drive_shard(drive_id, topology_shards_);
  }
  /// Whether this router owns the drive's shard. Always true for a
  /// full-topology router.
  bool owns(std::uint64_t drive_id) const noexcept {
    const std::size_t g = global_shard_of(drive_id);
    return g >= first_shard_ && g < first_shard_ + engines_.size();
  }
  /// Local engine index of an owned drive (callers in a sliced topology
  /// must check owns() first).
  std::size_t shard_of(std::uint64_t drive_id) const noexcept {
    return global_shard_of(drive_id) - first_shard_;
  }

  serve::ScoringEngine& shard(std::size_t i) { return *engines_.at(i); }
  const serve::ScoringEngine& shard(std::size_t i) const {
    return *engines_.at(i);
  }

  /// Routes one record to its owning shard. Returns false only when that
  /// shard shed it (shed_on_full). Throws std::invalid_argument for a drive
  /// this router's slice does not own — a misroute must never touch another
  /// shard's state (the net server closes such connections instead of
  /// submitting).
  bool submit(const serve::TelemetryUpdate& update) override;

  /// Blocks until every shard has drained everything submitted so far.
  void flush();

  /// flush(), then the fleet totals summed over this router's shards.
  serve::SinkTotals flush_totals() override;

  /// Stops every shard (flushing and sealing durable state), even when one
  /// of them fails, then rethrows the first failure. Idempotent.
  void stop();

  /// Each shard's durably applied record count (empty-dir shards report 0).
  std::vector<std::size_t> resume_records() const;

  /// Every shard's alerts merged into the canonical fleet order
  /// (day, drive id) — identical for every shard count.
  std::vector<core::Alert> alerts() const;

  /// Every shard's EngineStats merged into one: counters add, histograms
  /// add bucket by bucket (exactly: every histogram shares one geometry),
  /// and `max_queue_depth` is the largest shard's. Per-shard figures come
  /// from shard(i).stats().
  serve::EngineStats stats() const;

 private:
  std::vector<std::unique_ptr<serve::ScoringEngine>> engines_;
  std::size_t topology_shards_ = 1;
  std::size_t first_shard_ = 0;
};

}  // namespace mfpa::net
