#include "baselines/smart_threshold.hpp"

#include <gtest/gtest.h>

#include "core/feature_groups.hpp"

namespace mfpa::baselines {
namespace {

/// Dataset with named SMART columns; rows are all-healthy defaults that
/// individual tests perturb.
data::Dataset make_smart_dataset(std::size_t rows) {
  data::Dataset ds;
  ds.feature_names = core::smart_feature_names();
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<double> row(16, 0.0);
    row[1] = 35.0;   // temperature
    row[2] = 100.0;  // available spare
    row[3] = 10.0;   // spare threshold
    row[4] = 5.0;    // percentage used
    ds.add(row, 0, {i, static_cast<DayIndex>(i), 0});
  }
  return ds;
}

TEST(SmartThreshold, HealthyRowsPass) {
  const auto ds = make_smart_dataset(10);
  const SmartThresholdDetector detector;
  for (int alarm : detector.predict(ds)) EXPECT_EQ(alarm, 0);
}

TEST(SmartThreshold, CriticalWarningFires) {
  auto ds = make_smart_dataset(3);
  ds.X(1, 0) = 1.0;  // S_1 critical warning
  const SmartThresholdDetector detector;
  const auto alarms = detector.predict(ds);
  EXPECT_EQ(alarms[0], 0);
  EXPECT_EQ(alarms[1], 1);
}

TEST(SmartThreshold, SpareExhaustionFires) {
  auto ds = make_smart_dataset(2);
  ds.X(0, 2) = 10.0;  // spare == threshold
  const SmartThresholdDetector detector;
  EXPECT_EQ(detector.predict(ds)[0], 1);
}

TEST(SmartThreshold, WearExhaustionFires) {
  auto ds = make_smart_dataset(2);
  ds.X(0, 4) = 100.0;  // percentage used
  const SmartThresholdDetector detector;
  EXPECT_EQ(detector.predict(ds)[0], 1);
}

TEST(SmartThreshold, MediaErrorCountFires) {
  auto ds = make_smart_dataset(2);
  ds.X(0, 13) = 51.0;  // media errors beyond default 50
  const SmartThresholdDetector detector;
  EXPECT_EQ(detector.predict(ds)[0], 1);
}

TEST(SmartThreshold, RulesConfigurable) {
  auto ds = make_smart_dataset(1);
  ds.X(0, 13) = 20.0;
  SmartThresholdRules rules;
  rules.max_media_errors = 10.0;
  const SmartThresholdDetector strict(rules);
  const SmartThresholdDetector lax;
  EXPECT_EQ(strict.predict(ds)[0], 1);
  EXPECT_EQ(lax.predict(ds)[0], 0);
}

TEST(SmartThreshold, RequiresSmartColumns) {
  data::Dataset ds;
  ds.feature_names = {"W_7"};
  ds.add(std::vector<double>{1.0}, 0, {});
  const SmartThresholdDetector detector;
  EXPECT_THROW(detector.predict(ds), std::out_of_range);
}

}  // namespace
}  // namespace mfpa::baselines
