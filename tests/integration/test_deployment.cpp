// Deployment-surface integration: the trained pipeline's model round-trips
// through the serializer and keeps scoring identically; telemetry round-trips
// through CSV and trains to identical metrics; scenario presets all drive
// the full pipeline.
#include <gtest/gtest.h>

#include <sstream>

#include "core/mfpa.hpp"
#include "ml/serialize.hpp"
#include "sim/fleet.hpp"
#include "sim/telemetry_io.hpp"

namespace mfpa {
namespace {

TEST(Deployment, PipelineModelSerializesAndScoresIdentically) {
  sim::FleetSimulator fleet(sim::small_scenario(41));
  const auto telemetry = fleet.generate_telemetry();
  const auto tickets = fleet.tickets();
  core::MfpaConfig config;
  config.vendor = 0;
  config.seed = 41;
  core::MfpaPipeline pipeline(config);
  pipeline.run(telemetry, tickets);

  std::stringstream ss;
  ml::save_classifier(ss, pipeline.model());
  const auto restored = ml::load_classifier(ss);

  // Build scoring samples via the pipeline's own builder and compare.
  const core::Preprocessor pre;
  const auto builder = pipeline.make_builder();
  data::Dataset probe;
  probe.feature_names = builder.feature_names();
  for (const auto& series : telemetry) {
    if (series.vendor != 0 || probe.size() >= 200) continue;
    const auto drive = pre.process_drive(series);
    for (const auto& r : drive.records) {
      if (probe.size() >= 200) break;
      probe.add(builder.features_of(r), 0, {drive.drive_id, r.day, 0});
    }
  }
  ASSERT_GT(probe.size(), 50u);
  EXPECT_EQ(pipeline.model().predict_proba(probe.X),
            restored->predict_proba(probe.X));
}

TEST(Deployment, TelemetryCsvRoundTripTrainsIdentically) {
  sim::FleetSimulator fleet(sim::tiny_scenario(43));
  const auto telemetry = fleet.generate_telemetry();
  const auto tickets = fleet.tickets();

  std::stringstream ts, ks;
  sim::write_telemetry_csv(ts, telemetry);
  sim::write_tickets_csv(ks, tickets);
  const auto telemetry2 = sim::read_telemetry_csv(ts);
  const auto tickets2 = sim::read_tickets_csv(ks, RobustnessConfig{});

  core::MfpaConfig config;
  config.seed = 43;
  config.hyperparams = {{"n_trees", 10.0}, {"seed", 1.0}};
  core::MfpaPipeline a(config), b(config);
  const auto ra = a.run(telemetry, tickets);
  const auto rb = b.run(telemetry2, tickets2);
  EXPECT_EQ(ra.cm.tp, rb.cm.tp);
  EXPECT_EQ(ra.cm.fp, rb.cm.fp);
  EXPECT_EQ(ra.test_size, rb.test_size);
  // Scores match to float-serialization precision.
  ASSERT_EQ(ra.test_scores.size(), rb.test_scores.size());
  for (std::size_t i = 0; i < ra.test_scores.size(); ++i) {
    EXPECT_NEAR(ra.test_scores[i], rb.test_scores[i], 1e-6);
  }
}

class ScenarioSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(ScenarioSweep, FullPipelineRuns) {
  sim::FleetSimulator fleet(sim::scenario_by_name(GetParam(), 51));
  const auto telemetry = fleet.generate_telemetry();
  const auto tickets = fleet.tickets();
  core::MfpaConfig config;
  config.seed = 51;  // all vendors pooled: even tiny has enough positives
  config.hyperparams = {{"n_trees", 15.0}, {"seed", 1.0}};
  core::MfpaPipeline pipeline(config);
  const auto report = pipeline.run(telemetry, tickets);
  EXPECT_GT(report.test_size, 0u) << GetParam();
  EXPECT_GE(report.auc, 0.5) << GetParam();
  EXPECT_NO_THROW(report.cm.tpr());
}

INSTANTIATE_TEST_SUITE_P(Presets, ScenarioSweep,
                         ::testing::Values("tiny", "small"));

TEST(Deployment, ScenarioByNameRejectsUnknown) {
  EXPECT_THROW(sim::scenario_by_name("gigantic"), std::invalid_argument);
}

}  // namespace
}  // namespace mfpa
