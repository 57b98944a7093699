#include "core/sample_builder.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <span>

namespace mfpa::core {
namespace {

/// Drive whose records carry recognizable values: S_1 = day, W counts = 1/day.
ProcessedDrive make_drive(std::uint64_t id, const std::vector<DayIndex>& days,
                          bool failed = false, DayIndex failure_day = -1) {
  ProcessedDrive d;
  d.drive_id = id;
  d.vendor = 0;
  d.failed = failed;
  d.failure_day = failure_day;
  double w_cum = 0.0;
  for (DayIndex day : days) {
    ProcessedRecord r;
    r.day = day;
    r.firmware = "I_F_1";
    r.smart[0] = static_cast<double>(day);
    w_cum += 1.0;
    r.w_cum.fill(w_cum);
    r.b_cum.fill(w_cum);
    d.records.push_back(r);
  }
  return d;
}

data::LabelEncoder encoder() {
  data::LabelEncoder enc;
  enc.fit({"I_F_1", "I_F_2"});
  return enc;
}

IdentifiedFailure failure_at(std::uint64_t id, DayIndex day) {
  IdentifiedFailure f;
  f.drive_id = id;
  f.labeled_failure_day = day;
  return f;
}

TEST(SampleBuilder, RequiresEncoderForFirmwareGroups) {
  SampleConfig cfg;
  cfg.group = FeatureGroup::kSFWB;
  EXPECT_THROW(SampleBuilder(cfg, nullptr), std::invalid_argument);
  cfg.group = FeatureGroup::kS;
  EXPECT_NO_THROW(SampleBuilder(cfg, nullptr));
}

TEST(SampleBuilder, RejectsBadWindows) {
  SampleConfig cfg;
  cfg.group = FeatureGroup::kS;
  cfg.positive_window = 0;
  EXPECT_THROW(SampleBuilder(cfg, nullptr), std::invalid_argument);
}

// For every group a row is feature_count_of(g) wide, as wide as
// feature_names(), and features_into writes exactly features_of's doubles,
// bit for bit, an unseen firmware's unknown code included.
TEST(SampleBuilder, FeatureVectorMatchesGroupArity) {
  const auto enc = encoder();
  auto drive = make_drive(1, {5, 6});
  drive.records[1].firmware = "UNSEEN";
  for (FeatureGroup g : all_feature_groups()) {
    SampleConfig cfg;
    cfg.group = g;
    const SampleBuilder builder(cfg, &enc);
    const std::size_t width = feature_count_of(g);
    EXPECT_EQ(builder.feature_names().size(), width);
    for (const ProcessedRecord& record : drive.records) {
      const std::vector<double> row = builder.features_of(record);
      ASSERT_EQ(row.size(), width) << feature_group_name(g);
      // One slot wider and poisoned, so a short or long write shows.
      std::vector<double> out(width + 1, -1.0);
      builder.features_into(record, std::span<double>(out).first(width));
      EXPECT_EQ(std::memcmp(out.data(), row.data(), width * sizeof(double)),
                0)
          << feature_group_name(g) << " day " << record.day;
      EXPECT_EQ(out[width], -1.0) << feature_group_name(g);
    }
    if (feature_parts_of(g).firmware) {
      EXPECT_EQ(builder.features_of(drive.records[1])[16], enc.unknown_code())
          << feature_group_name(g);
    }
  }
}

TEST(SampleBuilder, FirmwareEncodedInFeatureVector) {
  const auto enc = encoder();
  SampleConfig cfg;
  cfg.group = FeatureGroup::kSF;
  const SampleBuilder builder(cfg, &enc);
  auto drive = make_drive(1, {5});
  drive.records[0].firmware = "I_F_2";
  const auto row = builder.features_of(drive.records[0]);
  EXPECT_DOUBLE_EQ(row[16], 1.0);  // code of I_F_2
  drive.records[0].firmware = "UNSEEN";
  EXPECT_DOUBLE_EQ(builder.features_of(drive.records[0])[16],
                   enc.unknown_code());
}

TEST(SampleBuilder, PositiveWindowMembership) {
  const auto enc = encoder();
  SampleConfig cfg;
  cfg.group = FeatureGroup::kS;
  cfg.positive_window = 7;
  cfg.neg_per_pos = 0.0;  // keep all negatives for deterministic counting
  const SampleBuilder builder(cfg, &enc);

  std::vector<ProcessedDrive> drives;
  drives.push_back(make_drive(1, {80, 90, 94, 97, 100}, true, 100));
  std::unordered_map<std::uint64_t, IdentifiedFailure> failures{
      {1, failure_at(1, 100)}};
  const auto ds = builder.build(drives, failures);
  // Window [94, 100]: records at 94, 97, 100 are positive; 80 and 90 are
  // outside and (belonging to a faulty drive) not used as negatives either.
  EXPECT_EQ(ds.positives(), 3u);
  EXPECT_EQ(ds.negatives(), 0u);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_GE(ds.meta[i].day, 94);
    EXPECT_LE(ds.meta[i].day, 100);
  }
}

TEST(SampleBuilder, LookaheadShiftsWindowBack) {
  const auto enc = encoder();
  SampleConfig cfg;
  cfg.group = FeatureGroup::kS;
  cfg.positive_window = 3;
  cfg.lookahead = 10;
  cfg.neg_per_pos = 0.0;
  const SampleBuilder builder(cfg, &enc);
  std::vector<ProcessedDrive> drives;
  drives.push_back(make_drive(1, {86, 88, 89, 90, 95, 100}, true, 100));
  std::unordered_map<std::uint64_t, IdentifiedFailure> failures{
      {1, failure_at(1, 100)}};
  const auto ds = builder.build(drives, failures);
  // Window = [100-10-2, 100-10] = [88, 90].
  EXPECT_EQ(ds.positives(), 3u);
  for (const auto& m : ds.meta) {
    EXPECT_GE(m.day, 88);
    EXPECT_LE(m.day, 90);
  }
}

TEST(SampleBuilder, NegativeRatioRespected) {
  const auto enc = encoder();
  SampleConfig cfg;
  cfg.group = FeatureGroup::kS;
  cfg.positive_window = 7;
  cfg.neg_per_pos = 3.0;
  const SampleBuilder builder(cfg, &enc);
  std::vector<ProcessedDrive> drives;
  drives.push_back(make_drive(1, {98, 99, 100}, true, 100));
  std::vector<DayIndex> many_days(200);
  for (int i = 0; i < 200; ++i) many_days[static_cast<std::size_t>(i)] = i;
  drives.push_back(make_drive(2, many_days));
  std::unordered_map<std::uint64_t, IdentifiedFailure> failures{
      {1, failure_at(1, 100)}};
  const auto ds = builder.build(drives, failures);
  EXPECT_EQ(ds.positives(), 3u);
  EXPECT_EQ(ds.negatives(), 9u);
}

TEST(SampleBuilder, NegativesComeOnlyFromHealthyDrives) {
  const auto enc = encoder();
  SampleConfig cfg;
  cfg.group = FeatureGroup::kS;
  cfg.neg_per_pos = 100.0;
  const SampleBuilder builder(cfg, &enc);
  std::vector<ProcessedDrive> drives;
  drives.push_back(make_drive(1, {1, 50, 99, 100}, true, 100));
  drives.push_back(make_drive(2, {1, 2, 3}));
  std::unordered_map<std::uint64_t, IdentifiedFailure> failures{
      {1, failure_at(1, 100)}};
  const auto ds = builder.build(drives, failures);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    if (ds.y[i] == 0) {
      EXPECT_EQ(ds.meta[i].drive_id, 2u);
    }
  }
}

TEST(SampleBuilder, DeterministicNegativeSampling) {
  const auto enc = encoder();
  SampleConfig cfg;
  cfg.group = FeatureGroup::kS;
  cfg.seed = 5;
  const SampleBuilder a(cfg, &enc), b(cfg, &enc);
  std::vector<ProcessedDrive> drives;
  drives.push_back(make_drive(1, {99, 100}, true, 100));
  std::vector<DayIndex> days(100);
  for (int i = 0; i < 100; ++i) days[static_cast<std::size_t>(i)] = i;
  drives.push_back(make_drive(2, days));
  std::unordered_map<std::uint64_t, IdentifiedFailure> failures{
      {1, failure_at(1, 100)}};
  EXPECT_EQ(a.build(drives, failures).meta, b.build(drives, failures).meta);
}

TEST(SampleBuilder, SelectConvertsOnlyDrawnDrives) {
  // select() over drives that are not converted yet must build what build()
  // builds over the converted batch, converting only the healthy drives a
  // negative draw lands in, each once.
  const auto enc = encoder();
  SampleConfig cfg;
  cfg.group = FeatureGroup::kSFWB;
  cfg.neg_per_pos = 2.0;
  cfg.seed = 9;
  const SampleBuilder builder(cfg, &enc);
  std::vector<ProcessedDrive> drives;
  drives.push_back(make_drive(1, {96, 97, 98, 99, 100}, true, 100));
  for (std::uint64_t id = 2; id < 40; ++id) {
    drives.push_back(make_drive(id, {1, 2, 3, static_cast<DayIndex>(id)}));
  }
  drives.push_back(make_drive(40, {95, 100}, true, 100));
  std::unordered_map<std::uint64_t, IdentifiedFailure> failures{
      {1, failure_at(1, 100)}, {40, failure_at(40, 100)}};
  std::vector<SampleSource> sources;
  for (const auto& d : drives) {
    const auto it = failures.find(d.drive_id);
    if (it == failures.end()) {
      sources.push_back({nullptr, d.records.size(), nullptr});
    } else {
      sources.push_back({&d, d.records.size(), &it->second});
    }
  }
  std::vector<std::size_t> converted;
  const auto ds = builder.select(sources, [&](std::size_t d) {
    converted.push_back(d);
    return drives[d];
  });
  const auto expected = builder.build(drives, failures);
  EXPECT_EQ(ds.X, expected.X);
  EXPECT_EQ(ds.y, expected.y);
  EXPECT_EQ(ds.meta, expected.meta);
  EXPECT_EQ(ds.positives(), 7u);
  EXPECT_EQ(ds.negatives(), 14u);
  std::vector<std::size_t> sampled;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    if (ds.y[i] == 1) continue;
    const auto d = static_cast<std::size_t>(ds.meta[i].drive_id - 1);
    if (sampled.empty() || sampled.back() != d) sampled.push_back(d);
  }
  EXPECT_EQ(converted, sampled);
  EXPECT_LT(converted.size(), 38u);
  EXPECT_EQ(builder.positive_count(sources), 7u);
}

TEST(SampleBuilder, SequenceRowsFlattenHistory) {
  const auto enc = encoder();
  SampleConfig cfg;
  cfg.group = FeatureGroup::kS;
  cfg.sequences = true;
  cfg.seq_len = 3;
  cfg.neg_per_pos = 0.0;
  const SampleBuilder builder(cfg, &enc);
  std::vector<ProcessedDrive> drives;
  drives.push_back(make_drive(1, {97, 98, 99, 100}, true, 100));
  std::unordered_map<std::uint64_t, IdentifiedFailure> failures{
      {1, failure_at(1, 100)}};
  const auto ds = builder.build(drives, failures);
  EXPECT_EQ(ds.num_features(), 16u * 3u);
  // For the sample at day 100, the S_1 slots should read 98, 99, 100.
  for (std::size_t i = 0; i < ds.size(); ++i) {
    if (ds.meta[i].day == 100) {
      EXPECT_DOUBLE_EQ(ds.X(i, 0), 98.0);
      EXPECT_DOUBLE_EQ(ds.X(i, 16), 99.0);
      EXPECT_DOUBLE_EQ(ds.X(i, 32), 100.0);
    }
  }
}

TEST(SampleBuilder, SequencePadsShortHistory) {
  const auto enc = encoder();
  SampleConfig cfg;
  cfg.group = FeatureGroup::kS;
  cfg.sequences = true;
  cfg.seq_len = 4;
  cfg.neg_per_pos = 0.0;
  const SampleBuilder builder(cfg, &enc);
  std::vector<ProcessedDrive> drives;
  drives.push_back(make_drive(1, {100}, true, 100));  // single record
  std::unordered_map<std::uint64_t, IdentifiedFailure> failures{
      {1, failure_at(1, 100)}};
  const auto ds = builder.build(drives, failures);
  ASSERT_EQ(ds.size(), 1u);
  // All four timesteps replicate the only record.
  for (int t = 0; t < 4; ++t) {
    EXPECT_DOUBLE_EQ(ds.X(0, static_cast<std::size_t>(t) * 16), 100.0);
  }
}

TEST(SampleBuilder, SequenceFeatureNamesPrefixed) {
  const auto enc = encoder();
  SampleConfig cfg;
  cfg.group = FeatureGroup::kS;
  cfg.sequences = true;
  cfg.seq_len = 2;
  const SampleBuilder builder(cfg, &enc);
  const auto names = builder.feature_names();
  EXPECT_EQ(names[0], "t-1_S_1");
  EXPECT_EQ(names[16], "t-0_S_1");
}

TEST(SampleBuilder, DeltasAppendRateOfChange) {
  const auto enc = encoder();
  SampleConfig cfg;
  cfg.group = FeatureGroup::kS;
  cfg.include_deltas = true;
  cfg.delta_days = 7;
  cfg.neg_per_pos = 0.0;
  const SampleBuilder builder(cfg, &enc);
  EXPECT_EQ(builder.feature_names().size(), 32u);
  EXPECT_EQ(builder.feature_names()[16], "d7_S_1");

  std::vector<ProcessedDrive> drives;
  // Records at days 80, 90, 95, 100 with S_1 = day.
  drives.push_back(make_drive(1, {80, 90, 95, 100}, true, 100));
  std::unordered_map<std::uint64_t, IdentifiedFailure> failures{
      {1, failure_at(1, 100)}};
  const auto ds = builder.build(drives, failures);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    if (ds.meta[i].day == 100) {
      // Anchor: newest record <= day 93 is day 90; delta S_1 = 100 - 90.
      EXPECT_DOUBLE_EQ(ds.X(i, 16), 10.0);
    }
    if (ds.meta[i].day == 95) {
      // Anchor day <= 88 -> record at 80; delta = 15.
      EXPECT_DOUBLE_EQ(ds.X(i, 16), 15.0);
    }
  }
}

TEST(SampleBuilder, DeltasZeroWithoutHistory) {
  const auto enc = encoder();
  SampleConfig cfg;
  cfg.group = FeatureGroup::kS;
  cfg.include_deltas = true;
  cfg.neg_per_pos = 0.0;
  const SampleBuilder builder(cfg, &enc);
  std::vector<ProcessedDrive> drives;
  drives.push_back(make_drive(1, {99, 100}, true, 100));  // no 7-day-old record
  std::unordered_map<std::uint64_t, IdentifiedFailure> failures{
      {1, failure_at(1, 100)}};
  const auto ds = builder.build(drives, failures);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    for (std::size_t c = 16; c < 32; ++c) {
      EXPECT_DOUBLE_EQ(ds.X(i, c), 0.0);
    }
  }
}

TEST(SampleBuilder, DeltasAndSequencesMutuallyExclusive) {
  const auto enc = encoder();
  SampleConfig cfg;
  cfg.group = FeatureGroup::kS;
  cfg.include_deltas = true;
  cfg.sequences = true;
  EXPECT_THROW(SampleBuilder(cfg, &enc), std::invalid_argument);
}

TEST(SampleBuilder, PositivesAtDistanceUsesGroundTruth) {
  const auto enc = encoder();
  SampleConfig cfg;
  cfg.group = FeatureGroup::kS;
  const SampleBuilder builder(cfg, &enc);
  std::vector<ProcessedDrive> drives;
  drives.push_back(make_drive(1, {80, 85, 90, 95, 100}, true, 100));
  drives.push_back(make_drive(2, {80, 85, 90}));  // healthy: excluded
  const auto ds = builder.build_positives_at_distance(drives, 5, 10);
  // Distances: 20, 15, 10, 5, 0 -> days 90 and 95 qualify.
  EXPECT_EQ(ds.size(), 2u);
  for (const auto& m : ds.meta) {
    EXPECT_TRUE(m.day == 90 || m.day == 95);
  }
  EXPECT_THROW(builder.build_positives_at_distance(drives, 10, 5),
               std::invalid_argument);
}

}  // namespace
}  // namespace mfpa::core
