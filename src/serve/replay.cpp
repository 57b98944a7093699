#include "serve/replay.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <unordered_set>

namespace mfpa::serve {

int train_and_publish(ModelRegistry& registry, const core::MfpaConfig& config,
                      const std::vector<sim::DriveTimeSeries>& telemetry,
                      const std::vector<sim::TroubleTicket>& tickets) {
  core::MfpaPipeline pipeline(config);
  const auto report = pipeline.run(telemetry, tickets);
  DayIndex lo = report.split_day;
  for (const auto& series : telemetry) {
    if (!series.records.empty()) lo = std::min(lo, series.records.front().day);
  }
  return registry.publish_pipeline(pipeline, lo, report.split_day);
}

core::DriveLevelMetrics drive_level(
    const std::vector<core::Alert>& alerts,
    const std::vector<std::pair<std::uint64_t, bool>>& drive_flags) {
  std::unordered_set<std::uint64_t> alerted;
  alerted.reserve(alerts.size());
  for (const auto& alert : alerts) alerted.insert(alert.drive_id);
  core::DriveLevelMetrics metrics;
  for (const auto& [drive_id, failed] : drive_flags) {
    if (failed) {
      ++metrics.faulty_drives;
      if (alerted.count(drive_id)) ++metrics.detected_drives;
    } else {
      ++metrics.healthy_drives;
      if (alerted.count(drive_id)) ++metrics.false_alarm_drives;
    }
  }
  return metrics;
}

FleetReplayer::FleetReplayer(
    const std::vector<sim::DriveTimeSeries>& telemetry)
    : telemetry_(&telemetry) {
  std::size_t total = 0;
  for (const auto& series : telemetry) total += series.records.size();
  order_.reserve(total);
  for (const auto& series : telemetry) {
    for (const auto& record : series.records) {
      order_.push_back({record.day, series.drive_id, series.vendor, &record});
    }
  }
  std::sort(order_.begin(), order_.end(),
            [](const Arrival& a, const Arrival& b) {
              if (a.day != b.day) return a.day < b.day;
              return a.drive_id < b.drive_id;
            });
  if (!order_.empty()) {
    first_day_ = order_.front().day;
    last_day_ = order_.back().day;
  }
}

ReplayReport FleetReplayer::replay(ScoringEngine& engine,
                                   const ReplayOptions& options) const {
  ReplayReport report = feed(*this, engine, options);
  engine.flush();  // an interrupted feed skipped the barrier
  report.engine = engine.stats();
  report.store = engine.store().stats();
  report.alerts = engine.alerts();
  report.drives = drive_level(report.alerts, report.drive_flags);
  return report;
}

StreamedFleet::StreamedFleet(sim::FleetSimulator& fleet,
                             std::size_t chunk_drives,
                             std::size_t generation_threads)
    : fleet_(&fleet),
      chunk_drives_(chunk_drives),
      generation_threads_(generation_threads) {
  if (chunk_drives_ == 0) {
    throw std::invalid_argument("StreamedFleet: chunk_drives must be >= 1");
  }
  tracked_ = fleet.tracked_drives();
}

void StreamedFleet::for_each_chunk(
    const std::function<bool(const FleetReplayer&)>& deliver) const {
  for (std::size_t b = 0; b < tracked_.size(); b += chunk_drives_) {
    const std::vector<sim::DriveTimeSeries> telemetry =
        fleet_->generate_telemetry_chunk(tracked_, b, b + chunk_drives_,
                                         generation_threads_);
    if (!deliver(FleetReplayer(telemetry))) return;
  }
}

ReplayReport feed(const ArrivalSource& source, RecordSink& sink,
                  const ReplayOptions& options) {
  ReplayReport report;
  std::vector<std::size_t> to_skip = options.skip_records;
  const std::size_t shards = std::max<std::size_t>(1, to_skip.size());
  to_skip.resize(shards, 0);
  const auto start = std::chrono::steady_clock::now();
  source.for_each_chunk([&](const FleetReplayer& chunk) {
    ++report.chunks;
    for (const auto& series : chunk.telemetry()) {
      report.drive_flags.emplace_back(series.drive_id, series.failed);
    }
    DayIndex current_day = chunk.first_day() - 1;
    for (const FleetReplayer::Arrival& arrival : chunk.arrivals()) {
      std::size_t& budget = to_skip[drive_shard(arrival.drive_id, shards)];
      if (budget > 0) {
        // Already durably applied by a previous process; the sink holds the
        // recovered state, so re-submitting would double-count.
        --budget;
        ++report.records_skipped;
        current_day = arrival.day;
        continue;
      }
      if (options.cancel != nullptr && *options.cancel) {
        report.interrupted = true;
        return false;
      }
      if (arrival.day != current_day) {
        current_day = arrival.day;
        ++report.days_replayed;
        if (options.on_day) options.on_day(current_day);
      }
      sink.submit({arrival.drive_id, arrival.vendor, *arrival.record});
      ++report.records_submitted;
      if (options.kill_after_records > 0 &&
          report.records_submitted >= options.kill_after_records) {
        // Die exactly as a power cut would: no flush, no destructors.
        if (!options.on_kill) std::raise(SIGKILL);
        options.on_kill();
        report.interrupted = true;
        return false;
      }
    }
    return true;
  });
  if (!report.interrupted) report.totals = sink.flush_totals();
  report.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  report.records_per_sec =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.records_submitted) / report.wall_seconds
          : 0.0;
  return report;
}

}  // namespace mfpa::serve
