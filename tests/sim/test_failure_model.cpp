#include "sim/failure_model.hpp"

#include <gtest/gtest.h>

#include <map>

namespace mfpa::sim {
namespace {

TEST(FailureModel, MeanFirmwareMultiplierIsShareWeighted) {
  VendorConfig v;
  v.firmware = {{"f1", 2.0, 0.5}, {"f2", 1.0, 0.5}};
  EXPECT_NEAR(FailureModel::mean_firmware_multiplier(v), 1.5, 1e-12);
}

TEST(FailureModel, ObservedFailureRateMatchesReplacementRate) {
  // Calibration property: across firmware mix, the fraction of drives
  // failing within the horizon approximates the vendor replacement rate.
  const VendorConfig& vendor = vendor_catalog()[0];  // RR = 0.0068
  FailureModel model;
  Rng rng(1);
  const int n = 60000;
  int failures = 0;
  for (int i = 0; i < n; ++i) {
    const std::size_t fw = rng.categorical(
        {0.12, 0.18, 0.30, 0.25, 0.15});  // vendor I market shares
    if (model.sample_outcome(vendor, fw, 540, rng).fails) ++failures;
  }
  const double rate = static_cast<double>(failures) / n;
  EXPECT_NEAR(rate, vendor.replacement_rate, vendor.replacement_rate * 0.15);
}

TEST(FailureModel, EarlierFirmwareFailsMoreOften) {
  const VendorConfig& vendor = vendor_catalog()[0];
  FailureModel model;
  Rng rng(2);
  const int n = 120000;
  int fails_first = 0, fails_last = 0;
  for (int i = 0; i < n; ++i) {
    if (model.sample_outcome(vendor, 0, 540, rng).fails) ++fails_first;
    if (model.sample_outcome(vendor, vendor.firmware.size() - 1, 540, rng).fails) {
      ++fails_last;
    }
  }
  EXPECT_GT(fails_first, fails_last * 3);  // multiplier ratio 3.0 / 0.4
}

TEST(FailureModel, FailureDayInsideHorizon) {
  const VendorConfig& vendor = vendor_catalog()[0];
  FailureModel model;
  Rng rng(3);
  for (int i = 0; i < 50000; ++i) {
    const auto out = model.sample_outcome(vendor, 0, 540, rng);
    if (!out.fails) continue;
    EXPECT_GE(out.failure_day, 0);
    EXPECT_LT(out.failure_day, 540);
    EXPECT_GT(out.failure_day, out.deploy_day);
  }
}

TEST(FailureModel, OnsetRangesByArchetype) {
  const VendorConfig& vendor = vendor_catalog()[0];
  FailureModel model;
  Rng rng(4);
  std::map<FailureArchetype, std::pair<int, int>> range;  // min, max
  for (int i = 0; i < 100000; ++i) {
    const auto out = model.sample_outcome(vendor, 0, 540, rng);
    if (!out.fails) continue;
    auto& [lo, hi] = range.try_emplace(out.archetype, 9999, 0).first->second;
    lo = std::min(lo, out.onset_days);
    hi = std::max(hi, out.onset_days);
  }
  ASSERT_EQ(range.size(), kNumArchetypes);
  EXPECT_GE(range[FailureArchetype::kWearout].first, 20);
  EXPECT_LE(range[FailureArchetype::kWearout].second, 60);
  EXPECT_GE(range[FailureArchetype::kSudden].first, 10);
  EXPECT_LE(range[FailureArchetype::kSudden].second, 21);
  // Sudden deaths degrade for less time than wear-out deaths.
  EXPECT_LT(range[FailureArchetype::kSudden].second,
            range[FailureArchetype::kWearout].second);
}

TEST(FailureModel, BathtubHasInfantAndWearoutMass) {
  FailureModel model;
  Rng rng(5);
  int early = 0, late = 0, total = 0;
  for (int i = 0; i < 20000; ++i) {
    const double age = model.sample_failure_age(rng, nullptr);
    ++total;
    if (age < 90.0) ++early;
    if (age > 700.0) ++late;
  }
  // Both bathtub ends carry nontrivial probability mass.
  EXPECT_GT(static_cast<double>(early) / total, 0.15);
  EXPECT_GT(static_cast<double>(late) / total, 0.15);
}

TEST(FailureModel, ArchetypeHintCorrelatesWithAge) {
  FailureModel model;
  Rng rng(6);
  int wearout_young = 0, wearout_old = 0, young = 0, old = 0;
  for (int i = 0; i < 50000; ++i) {
    FailureArchetype a{};
    const double age = model.sample_failure_age(rng, &a);
    if (age < 120.0) {
      ++young;
      if (a == FailureArchetype::kWearout) ++wearout_young;
    } else if (age > 700.0) {
      ++old;
      if (a == FailureArchetype::kWearout) ++wearout_old;
    }
  }
  ASSERT_GT(young, 100);
  ASSERT_GT(old, 100);
  EXPECT_GT(static_cast<double>(wearout_old) / old,
            static_cast<double>(wearout_young) / young * 2.0);
}

TEST(FailureModel, TicketCategoryMarginalMatchesTableI) {
  Rng rng(7);
  const VendorConfig& vendor = vendor_catalog()[0];
  std::size_t drive_level = 0, total = 0;
  for (int i = 0; i < 30000; ++i) {
    // Sample archetypes from the vendor mix, then categories.
    const auto& mix = vendor.archetypes;
    const std::size_t a =
        rng.categorical({mix.wearout, mix.media, mix.controller, mix.sudden});
    const TicketCategory c =
        sample_ticket_category(static_cast<FailureArchetype>(a), rng);
    ++total;
    if (ticket_category_info(c).level == FailureLevel::kDriveLevel) {
      ++drive_level;
    }
  }
  // Table I: 31.62% drive-level (coupling approximates it).
  EXPECT_NEAR(static_cast<double>(drive_level) / total, 0.3162, 0.04);
}

TEST(FailureModel, SuddenFailuresLookSystemLevel) {
  Rng rng(8);
  std::size_t drive_level = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const TicketCategory c =
        sample_ticket_category(FailureArchetype::kSudden, rng);
    if (ticket_category_info(c).level == FailureLevel::kDriveLevel) {
      ++drive_level;
    }
  }
  EXPECT_LT(static_cast<double>(drive_level) / n, 0.15);
}

TEST(FailureModel, HealthyOutcomeHasNoFailureDay) {
  const VendorConfig& vendor = vendor_catalog()[1];  // low RR
  FailureModel model;
  Rng rng(9);
  int checked = 0;
  for (int i = 0; i < 1000 && checked < 100; ++i) {
    const auto out = model.sample_outcome(vendor, 0, 540, rng);
    if (out.fails) continue;
    EXPECT_EQ(out.failure_day, -1);
    ++checked;
  }
  EXPECT_GE(checked, 100);
}

}  // namespace
}  // namespace mfpa::sim
