// Quickstart: simulate a consumer-SSD fleet, train MFPA on its telemetry +
// trouble tickets, and print the headline metrics.
//
//   ./quickstart [scenario] [seed]
//     scenario: tiny | small | default | large   (default: small)
//     seed:     any integer                      (default: 42)
#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "common/string_util.hpp"
#include "common/table_printer.hpp"
#include "core/mfpa.hpp"
#include "serve/model_registry.hpp"
#include "serve/wal.hpp"
#include "sim/fleet.hpp"

int main(int argc, char** argv) {
  using namespace mfpa;
  const std::string scenario_name = argc > 1 ? argv[1] : "small";
  const std::uint64_t seed =
      argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 42;

  std::cout << "MFPA quickstart — scenario '" << scenario_name << "', seed "
            << seed << "\n";

  // 1. Simulate the fleet (the stand-in for the paper's production CSS).
  sim::FleetSimulator fleet(sim::scenario_by_name(scenario_name, seed));
  const auto summaries = fleet.summarize();
  std::size_t total = 0, failures = 0;
  for (const auto& s : summaries) {
    total += s.total;
    failures += s.failures;
  }
  std::cout << "Fleet: " << format_with_commas(static_cast<long long>(total))
            << " drives, "
            << format_with_commas(static_cast<long long>(failures))
            << " failures within the horizon\n";

  // 2. Collect telemetry and the RaSRF ticket stream.
  const auto telemetry = fleet.generate_telemetry();
  const auto tickets = fleet.tickets();
  std::size_t records = 0;
  for (const auto& t : telemetry) records += t.records.size();
  std::cout << "Telemetry: " << telemetry.size() << " tracked drives, "
            << format_with_commas(static_cast<long long>(records))
            << " daily records; " << tickets.size() << " trouble tickets\n\n";

  // 3. Train and evaluate MFPA (vendor I, SFWB features, random forest).
  core::MfpaConfig config;
  config.vendor = 0;
  config.algorithm = "RF";
  config.group = core::FeatureGroup::kSFWB;
  config.seed = seed;
  core::MfpaPipeline pipeline(config);
  const auto report = pipeline.run(telemetry, tickets);

  TablePrinter table({"metric", "value"});
  table.add_row({"TPR", format_percent(report.cm.tpr())});
  table.add_row({"FPR", format_percent(report.cm.fpr())});
  table.add_row({"ACC", format_percent(report.cm.accuracy())});
  table.add_row({"PDR", format_percent(report.cm.pdr())});
  table.add_row({"AUC", format_percent(report.auc)});
  table.add_row({"train samples", std::to_string(report.train_size)});
  table.add_row({"test samples", std::to_string(report.test_size)});
  table.add_row({"test positives", std::to_string(report.test_positives)});
  table.print(std::cout);

  std::cout << "\nPer-stage timing:\n";
  for (const auto& stage : report.stages) {
    std::cout << "  " << stage.name << ": "
              << format_double(stage.seconds * 1e3, 1) << " ms ("
              << stage.items << " items)\n";
  }

  // 4. Ship the model: write the deployable artifact (classifier, feature
  // group, firmware vocabulary and threshold under one digest), reload it,
  // and verify the round trip predicts identically (this is how refreshed
  // models reach client machines).
  serve::ModelManifest manifest;
  manifest.group = config.group;
  manifest.threshold = pipeline.threshold();
  manifest.train_lo = manifest.train_hi = report.split_day;
  for (const auto& series : telemetry) {
    if (!series.records.empty()) {
      manifest.train_lo =
          std::min(manifest.train_lo, series.records.front().day);
    }
  }
  const std::string model_path = "mfpa_model.model";
  serve::publish_file(model_path,
                      serve::render_artifact(manifest,
                                             pipeline.firmware_encoder(),
                                             pipeline.model()),
                      /*fsync=*/false);
  const auto restored = serve::load_artifact(model_path);
  const std::size_t n_features =
      restored->make_builder().feature_names().size();
  data::Matrix probe(8, n_features, 0.0);
  for (std::size_t r = 0; r < probe.rows(); ++r) {
    probe(r, r % n_features) = static_cast<double>(r) * 10.0;
  }
  const bool identical = pipeline.model().predict_proba(probe) ==
                         restored->classifier->predict_proba(probe);
  std::cout << "\nModel artifact written to " << model_path << " ("
            << restored->manifest.algorithm << ", group "
            << core::feature_group_name(restored->manifest.group)
            << ", threshold " << format_double(restored->manifest.threshold, 3)
            << "); reload predicts identically: "
            << (identical ? "yes" : "NO — bug!") << "\n";
  return 0;
}
