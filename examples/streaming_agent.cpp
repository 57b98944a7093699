// Streaming scoring service: the fleet-side counterpart of the on-device
// agent. Telemetry uploads arrive day by day over a lossy channel
// (sim::FaultInjector: retried uploads, NaN sensor reads), stream through
// the bounded ingress queue of a serve::ScoringEngine, and are scored in
// micro-batches against whatever model the serve::ModelRegistry currently
// publishes. Halfway through the replay a newly trained model is published
// — the engine hot-swaps between micro-batches without dropping or blocking
// a single in-flight record, which is the whole point of the RCU registry.
//
//   ./streaming_agent [scenario] [seed]
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "common/string_util.hpp"
#include "core/mfpa.hpp"
#include "obs/export.hpp"
#include "serve/model_registry.hpp"
#include "serve/replay.hpp"
#include "serve/scoring_engine.hpp"
#include "sim/fault_injector.hpp"
#include "sim/fleet.hpp"

int main(int argc, char** argv) {
  using namespace mfpa;
  const std::string scenario_name = argc > 1 ? argv[1] : "small";
  const std::uint64_t seed =
      argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 42;

  sim::FleetSimulator fleet(sim::scenario_by_name(scenario_name, seed));
  const auto telemetry = fleet.generate_telemetry();
  const auto tickets = fleet.tickets();

  // The channel between agents and the service is lossy; the store runs its
  // ingestors in lenient mode and accounts for every repair.
  sim::FaultInjector channel({{{sim::FaultMode::kDuplicateDay, 0.05},
                               {sim::FaultMode::kNanField, 0.02}},
                              seed});
  const auto uploads = channel.corrupt(telemetry);

  const auto registry_dir =
      (std::filesystem::temp_directory_path() / "mfpa-example-registry")
          .string();
  std::filesystem::remove_all(registry_dir);
  serve::ModelRegistry registry(registry_dir);

  // --- Train + publish v1 (RF), and prepare a v2 (GBDT) to ship mid-run. --
  core::MfpaConfig config_v1;
  config_v1.seed = seed;
  const int v1 =
      serve::train_and_publish(registry, config_v1, telemetry, tickets);
  core::MfpaConfig config_v2 = config_v1;
  config_v2.algorithm = "GBDT";
  core::MfpaPipeline pipeline_v2(config_v2);
  const auto report_v2 = pipeline_v2.run(telemetry, tickets);
  std::cout << "fleet side: published "
            << registry.current()->manifest.algorithm << " v" << v1 << " to "
            << registry_dir << "; GBDT standing by (test TPR "
            << format_percent(report_v2.cm.tpr()) << ")\n";

  // --- Service side: replay the lossy upload stream through the engine. --
  serve::EngineConfig engine_config;
  engine_config.store.preprocess.robustness.mode = IngestMode::kLenient;
  engine_config.record_scores = true;  // keep per-version score log
  serve::ScoringEngine engine(registry, engine_config);

  const serve::FleetReplayer replayer(uploads);
  const DayIndex swap_day =
      replayer.first_day() +
      (replayer.last_day() - replayer.first_day()) / 2;
  int v2 = 0;
  serve::ReplayOptions options;
  options.on_day = [&](DayIndex day) {
    if (v2 == 0 && day >= swap_day) {
      v2 = registry.publish_pipeline(pipeline_v2, 0, day);
      std::cout << "service side: hot-swapped to GBDT v" << v2 << " on "
                << format_date(day) << " (queue keeps draining)\n";
    }
  };
  const auto report = replayer.replay(engine, options);
  engine.stop();

  std::size_t scored_v1 = 0, scored_v2 = 0;
  for (const auto& row : engine.take_scored_rows()) {
    (row.model_version == v1 ? scored_v1 : scored_v2) += 1;
  }
  std::cout << "\nreplayed " << report.engine.submitted << " uploads in "
            << format_double(report.wall_seconds, 2) << " s ("
            << format_with_commas(
                   static_cast<long long>(report.records_per_sec))
            << " rec/s), " << report.engine.batches << " micro-batches\n"
            << "rows scored: " << scored_v1 << " on v" << v1 << ", "
            << scored_v2 << " on v" << v2 << " ("
            << report.engine.model_swaps
            << " swap observed; nothing dropped: shed="
            << report.engine.shed << ")\n"
            << "alerts: " << report.engine.alerts << " -> drive-level TPR "
            << format_percent(report.drives.drive_tpr()) << ", FPR "
            << format_percent(report.drives.drive_fpr()) << "\n"
            << "latency p50/p99: "
            << format_double(report.engine.latency_us.quantile(0.5), 0) << "/"
            << format_double(report.engine.latency_us.quantile(0.99), 0)
            << " us\n"
            << "dirty-channel accounting: " << report.store.ingest.summary()
            << "\n";

  // Everything above is also in the process metrics registry — this is what
  // a scrape of the service (or `mfpa metrics`) would see.
  std::cout << "\nprocess metrics registry:\n"
            << obs::to_prometheus(obs::registry().snapshot());
  return 0;
}
