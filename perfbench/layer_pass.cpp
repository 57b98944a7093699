// The traced layer pass: the benchmark drives each serving layer's public
// function itself, in the order ScoringEngine::process_batch calls them,
// so every layer's time is measured from outside the program.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <tuple>

#include "bench.hpp"
#include "data/matrix.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "serve/checkpoint.hpp"

namespace perfbench {

namespace core = mfpa::core;
namespace data = mfpa::data;
namespace net = mfpa::net;
namespace obs = mfpa::obs;
namespace fs = std::filesystem;

serve::EngineConfig engine_config(const std::string& label) {
  serve::EngineConfig config;
  config.max_batch = kMaxBatch;
  config.store.shards = kStoreShards;
  config.instance_label = label;
  return config;
}

serve::DurabilityConfig durable_config(const fs::path& dir) {
  serve::DurabilityConfig config;
  config.dir = dir.string();
  return config;
}

std::string canonical_alerts(std::vector<core::Alert> alerts) {
  std::sort(alerts.begin(), alerts.end(),
            [](const core::Alert& a, const core::Alert& b) {
              return std::tie(a.day, a.drive_id, a.score) <
                     std::tie(b.day, b.drive_id, b.score);
            });
  std::string out;
  char line[96];
  for (const auto& alert : alerts) {
    const int n = std::snprintf(line, sizeof line, "%d %llu %.17g\n",
                                static_cast<int>(alert.day),
                                static_cast<unsigned long long>(alert.drive_id),
                                alert.score);
    out.append(line, static_cast<std::size_t>(n));
  }
  return out;
}

// --- SpanRecorder -------------------------------------------------------------

SpanRecorder::Id SpanRecorder::open(const char* name) {
  const Id id = static_cast<Id>(spans_.size());
  spans_.push_back(
      {name, Clock::now(), {}, stack_.empty() ? kNoParent : stack_.back()});
  stack_.push_back(id);
  return id;
}

void SpanRecorder::close(Id id) {
  spans_[id].end = Clock::now();
  stack_.pop_back();
}

std::map<std::string, double> SpanRecorder::self_seconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      child[span.parent] += seconds_between(span.start, span.end);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] +=
        seconds_between(spans_[i].start, spans_[i].end) - child[i];
  }
  return out;
}

double SpanRecorder::root_seconds() const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.parent == kNoParent) total += seconds_between(span.start, span.end);
  }
  return total;
}

void SpanRecorder::write_chrome_trace(const fs::path& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  auto us = [origin](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << span.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << us(span.start)
        << ",\"dur\":" << us(span.end) - us(span.start) << "}";
  }
  out << "\n]}\n";
}

// --- layer pass ---------------------------------------------------------------

namespace {

/// One engine's state, driven by hand instead of by a drain loop.
struct Shard {
  serve::DriveStateStore store{engine_config("layer").store};
  std::unique_ptr<serve::DurabilityManager> durability;
  std::vector<core::Alert> alerts;
};

using Arrivals = std::vector<serve::FleetReplayer::Arrival>;

serve::TelemetryUpdate update_of(const serve::FleetReplayer::Arrival& a) {
  return {a.drive_id, a.vendor, *a.record};
}

class Layers {
 public:
  Layers(SpanRecorder* recorder, const serve::ServedModel& model,
         obs::MetricsRegistry& registry, LayerCounts& counts)
      : recorder_(recorder),
        model_(model),
        builder_(model.make_builder()),
        policy_(engine_config("layer").alert_policy),
        fsyncs_(registry.counter("mfpa_wal_fsyncs_total")),
        ckpt_writes_(registry.counter("mfpa_ckpt_writes_total")),
        counts_(counts) {}

  void set_recorder(SpanRecorder* recorder) noexcept { recorder_ = recorder; }

  /// ScoringEngine::process_batch, one public call at a time. `recovering`
  /// replays a WAL tail: no re-append and no checkpoint cadence, but raised
  /// alerts still extend the durable alert log.
  void process_batch(Shard& shard, std::span<const serve::TelemetryUpdate> batch,
                     bool recovering) {
    const bool log = shard.durability && !recovering;
    if (log) {
      for (const auto& u : batch) {
        wal_call([&] {
          shard.durability->append(u.drive_id, u.vendor, u.record);
        });
      }
    }

    std::vector<serve::PendingRow> rows;
    rows.reserve(batch.size());
    {
      ScopedSpan span(recorder_, "serve.store.ingest");
      for (const auto& u : batch) {
        try {
          shard.store.ingest(u.drive_id, u.vendor, u.record, rows);
          ++counts_.ingested;
        } catch (const std::invalid_argument&) {
          ++counts_.rejected;
        }
      }
    }
    counts_.rows += rows.size();

    std::vector<double> scores;
    if (!rows.empty()) {
      data::Matrix X(0, 0);
      {
        ScopedSpan span(recorder_, "core.features");
        for (const auto& row : rows) X.add_row(builder_.features_of(row.record));
      }
      {
        ScopedSpan span(recorder_, "ml.predict");
        scores = model_.classifier->predict_proba(X);
      }
      ++counts_.predict_calls;
    }

    {
      ScopedSpan span(recorder_, "serve.alerts");
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const serve::PendingRow& row = rows[i];
        const bool crossed = scores[i] >= model_.manifest.threshold;
        if (!shard.store.should_alert(row.drive_id, row.record.day,
                                      row.segment, crossed, policy_)) {
          continue;
        }
        const core::Alert alert{row.drive_id, row.record.day, scores[i]};
        shard.alerts.push_back(alert);
        ++counts_.alerts;
        if (shard.durability) {
          wal_call([&] { shard.durability->append_alert(alert); });
        }
      }
    }

    if (log) {
      const std::uint64_t before = ckpt_writes_.value();
      ScopedSpan span(recorder_, "serve.checkpoint.check");
      shard.durability->on_batch_end(shard.store, model_.manifest.version);
      if (recorder_ && ckpt_writes_.value() != before) {
        recorder_->rename(span.id(), "serve.checkpoint.write");
      }
    }
  }

  /// Feeds arrivals [lo, hi) in batches of `batch` records.
  void feed(Shard& shard, const Arrivals& arrivals, std::size_t lo,
            std::size_t hi, std::size_t batch) {
    std::vector<serve::TelemetryUpdate> updates;
    updates.reserve(batch);
    for (std::size_t i = lo; i < hi; ++i) {
      updates.push_back(update_of(arrivals[i]));
      if (updates.size() == batch || i + 1 == hi) {
        process_batch(shard, updates, false);
        updates.clear();
      }
    }
  }

 private:
  SpanRecorder* recorder_;
  const serve::ServedModel& model_;
  core::SampleBuilder builder_;
  core::AlertPolicy policy_;
  const obs::Counter& fsyncs_;
  const obs::Counter& ckpt_writes_;
  LayerCounts& counts_;

  /// A WAL or alert-log append; relabelled a commit when it fsynced.
  template <typename Fn>
  void wal_call(Fn&& fn) {
    const std::uint64_t before = fsyncs_.value();
    ScopedSpan span(recorder_, "serve.wal.append");
    fn();
    if (recorder_ && fsyncs_.value() != before) {
      recorder_->rename(span.id(), "serve.wal.commit");
    }
  }
};

/// Runs `fn` as one root span and adds its wall time to `wall`.
template <typename Fn>
void root_scope(SpanRecorder* recorder, const char* name, double& wall,
                Fn&& fn) {
  const auto start = Clock::now();
  {
    ScopedSpan span(recorder, name);
    fn();
  }
  wall += seconds_between(start, Clock::now());
}

std::vector<core::Alert> merged_alerts(const std::vector<Shard>& shards) {
  std::vector<core::Alert> out;
  for (const auto& shard : shards) {
    out.insert(out.end(), shard.alerts.begin(), shard.alerts.end());
  }
  return out;
}

}  // namespace

LayerPassResult run_layer_pass(const LayerPassInput& input,
                               SpanRecorder* recorder) {
  // A private registry per pass, so the WAL/checkpoint counters read here
  // count this pass only.
  auto registry = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride scope(*registry);
  const obs::Counter& wal_bytes = registry->counter("mfpa_wal_bytes_total");
  const obs::Counter& fsyncs = registry->counter("mfpa_wal_fsyncs_total");
  const obs::Counter& ckpt_writes = registry->counter("mfpa_ckpt_writes_total");
  const obs::Counter& ckpt_bytes = registry->counter("mfpa_ckpt_bytes_total");

  LayerPassResult result;
  LayerCounts& counts = result.counts;
  Layers layers(recorder, *input.model, *registry, counts);
  const Arrivals& arrivals = *input.arrivals;
  const std::size_t n = arrivals.size();
  const int version = input.model->manifest.version;
  counts.records = n;

  switch (input.kind) {
    case Kind::kMemory: {
      Shard shard;
      root_scope(recorder, "pass.feed", result.wall_s, [&] {
        layers.feed(shard, arrivals, 0, n, input.batch);
      });
      result.alerts = canonical_alerts(shard.alerts);
      break;
    }

    case Kind::kDurable: {
      const fs::path live = input.dir / "layer-live";
      const fs::path image = input.dir / "layer-image";
      std::string feed_alerts;
      {
        Shard shard;
        shard.durability =
            std::make_unique<serve::DurabilityManager>(durable_config(live));
        shard.durability->recover(shard.store, version);
        shard.durability->finish_recovery(shard.store, version);
        const std::uint64_t bytes0 = wal_bytes.value();
        const std::uint64_t fsyncs0 = fsyncs.value();
        const std::uint64_t writes0 = ckpt_writes.value();
        const std::uint64_t ckpt_bytes0 = ckpt_bytes.value();
        root_scope(recorder, "pass.feed", result.wall_s, [&] {
          layers.feed(shard, arrivals, 0, input.crash_at, input.batch);
        });
        // The crash image: the durable directory as the idle drain loop
        // left it (buffered WAL frames not yet written are lost).
        fs::copy(live, image, fs::copy_options::recursive);
        root_scope(recorder, "pass.feed", result.wall_s, [&] {
          layers.feed(shard, arrivals, input.crash_at, n, input.batch);
        });
        counts.wal_bytes = wal_bytes.value() - bytes0;
        counts.fsyncs = fsyncs.value() - fsyncs0;
        counts.ckpt_writes = ckpt_writes.value() - writes0;
        counts.ckpt_bytes = ckpt_bytes.value() - ckpt_bytes0;
        feed_alerts = canonical_alerts(shard.alerts);
      }

      const LayerCounts feed_counts = counts;
      Shard restarted;
      restarted.durability =
          std::make_unique<serve::DurabilityManager>(durable_config(image));
      serve::RecoveryResult recovered;
      root_scope(recorder, "pass.recovery", result.wall_s, [&] {
        {
          ScopedSpan span(recorder, "serve.recovery.load");
          recovered = restarted.durability->recover(restarted.store, version);
        }
        restarted.alerts = recovered.alerts;
        {
          // One leaf span: the replay's own layer calls are not split out.
          ScopedSpan span(recorder, "serve.recovery.replay");
          layers.set_recorder(nullptr);
          std::vector<serve::TelemetryUpdate> tail;
          for (std::size_t i = 0; i < recovered.tail.size(); ++i) {
            const auto& e = recovered.tail[i];
            tail.push_back({e.drive_id, e.vendor, e.record});
            if (tail.size() == input.batch || i + 1 == recovered.tail.size()) {
              layers.process_batch(restarted, tail, true);
              tail.clear();
            }
          }
          layers.set_recorder(recorder);
        }
        ScopedSpan span(recorder, "serve.recovery.seal");
        restarted.durability->finish_recovery(restarted.store, version);
      });
      // Resume the feed after what the image made durable (not timed).
      layers.set_recorder(nullptr);
      layers.feed(restarted, arrivals, recovered.durable_records, n,
                  input.batch);
      layers.set_recorder(recorder);

      counts = feed_counts;
      counts.tail_records = recovered.tail.size();
      result.alerts = feed_alerts;
      result.restart_alerts = canonical_alerts(restarted.alerts);
      break;
    }

    case Kind::kOpenLoop: {
      std::vector<Shard> shards(kRouterShards);
      net::FrameDecoder decoder;
      std::string wire;
      std::vector<net::NetMessage> decoded;
      std::vector<std::vector<serve::TelemetryUpdate>> routed(kRouterShards);
      std::uint64_t seq = 1;
      const std::size_t chunk = input.batch * kRouterShards;
      root_scope(recorder, "pass.feed", result.wall_s, [&] {
        for (std::size_t lo = 0; lo < n; lo += chunk) {
          const std::size_t hi = std::min(n, lo + chunk);
          wire.clear();
          {
            ScopedSpan span(recorder, "net.encode");
            for (std::size_t i = lo; i < hi; ++i) {
              net::append_record_frame(wire, seq++, arrivals[i].drive_id,
                                       arrivals[i].vendor, *arrivals[i].record);
            }
          }
          counts.net_bytes += wire.size();
          decoded.clear();
          {
            ScopedSpan span(recorder, "net.decode");
            decoder.feed(wire.data(), wire.size());
            net::NetMessage msg;
            net::FrameDecoder::Status status;
            while ((status = decoder.next(msg)) ==
                   net::FrameDecoder::Status::kMessage) {
              decoded.push_back(msg);
            }
            if (status == net::FrameDecoder::Status::kError) {
              throw std::runtime_error(std::string("MFNP decode error: ") +
                                       net::error_name(decoder.error()));
            }
          }
          counts.net_decoded += decoded.size();
          for (const auto& msg : decoded) {
            routed[serve::drive_shard(msg.drive_id, kRouterShards)].push_back(
                {msg.drive_id, msg.vendor, msg.record});
          }
          for (std::size_t k = 0; k < kRouterShards; ++k) {
            if (routed[k].empty()) continue;
            layers.process_batch(shards[k], routed[k], false);
            routed[k].clear();
          }
        }
      });
      result.alerts = canonical_alerts(merged_alerts(shards));
      break;
    }
  }
  return result;
}

}  // namespace perfbench
