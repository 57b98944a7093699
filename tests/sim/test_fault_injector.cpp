#include "sim/fault_injector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>

#include "common/string_util.hpp"
#include "sim/fleet.hpp"
#include "sim/telemetry_io.hpp"

namespace mfpa::sim {
namespace {

std::vector<DriveTimeSeries> tiny_batch(std::uint64_t seed = 3) {
  FleetSimulator fleet(tiny_scenario(seed));
  return fleet.generate_telemetry();
}

/// Faults injected over every mode.
std::size_t total_injected(const InjectionStats& stats) {
  return std::accumulate(stats.injected.begin(), stats.injected.end(),
                         std::size_t{0});
}

std::string tiny_csv(std::uint64_t seed = 3) {
  std::stringstream ss;
  write_telemetry_csv(ss, tiny_batch(seed));
  return ss.str();
}

bool batches_equal(const std::vector<DriveTimeSeries>& a,
                   const std::vector<DriveTimeSeries>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].drive_id != b[i].drive_id) return false;
    if (a[i].records.size() != b[i].records.size()) return false;
    for (std::size_t j = 0; j < a[i].records.size(); ++j) {
      const auto& ra = a[i].records[j];
      const auto& rb = b[i].records[j];
      if (ra.day != rb.day || ra.w != rb.w || ra.b != rb.b) return false;
      for (std::size_t k = 0; k < kNumSmartAttrs; ++k) {
        const bool both_nan =
            std::isnan(ra.smart[k]) && std::isnan(rb.smart[k]);
        if (!both_nan && ra.smart[k] != rb.smart[k]) return false;
      }
    }
  }
  return true;
}

TEST(FaultInjector, SameSeedProducesByteIdenticalCorruption) {
  const auto clean = tiny_batch();
  FaultPlan plan;
  plan.seed = 99;
  plan.faults = {{FaultMode::kDuplicateDay, 0.1},
                 {FaultMode::kCounterReset, 0.1},
                 {FaultMode::kNanField, 0.1}};
  FaultInjector a(plan);
  FaultInjector b(plan);
  EXPECT_TRUE(batches_equal(a.corrupt(clean), b.corrupt(clean)));
  // Repeat calls on the SAME injector are also identical: each call
  // re-derives its stream from the plan seed.
  EXPECT_TRUE(batches_equal(a.corrupt(clean), b.corrupt(clean)));

  const std::string csv = tiny_csv();
  FaultPlan text_plan;
  text_plan.seed = 99;
  text_plan.faults = {{FaultMode::kTruncatedRow, 0.1},
                      {FaultMode::kMalformedFirmware, 0.1}};
  FaultInjector c(text_plan);
  FaultInjector d(text_plan);
  EXPECT_EQ(c.corrupt_csv(csv), d.corrupt_csv(csv));  // byte identical
  EXPECT_EQ(c.corrupt_csv(csv), d.corrupt_csv(csv));
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  const std::string csv = tiny_csv();
  FaultInjector a({{{FaultMode::kTruncatedRow, 0.2}}, 1});
  FaultInjector b({{{FaultMode::kTruncatedRow, 0.2}}, 2});
  EXPECT_NE(a.corrupt_csv(csv), b.corrupt_csv(csv));
}

TEST(FaultInjector, ZeroRateIsIdentity) {
  const auto clean = tiny_batch();
  const std::string csv = tiny_csv();
  FaultPlan plan;
  plan.seed = 5;
  for (std::size_t m = 0; m < kNumFaultModes; ++m) {
    plan.faults.push_back({static_cast<FaultMode>(m), 0.0});
  }
  FaultInjector injector(plan);
  EXPECT_TRUE(batches_equal(injector.corrupt(clean), clean));
  EXPECT_EQ(injector.corrupt_csv(csv), csv);
  EXPECT_EQ(total_injected(injector.stats()), 0u);
}

TEST(FaultInjector, DuplicateDayInsertsRepeatedDays) {
  FaultInjector injector({{{FaultMode::kDuplicateDay, 0.1}}, 7});
  const auto corrupted = injector.corrupt(tiny_batch());
  ASSERT_GT(injector.stats().of(FaultMode::kDuplicateDay), 0u);
  std::size_t duplicates = 0;
  for (const auto& s : corrupted) {
    for (std::size_t i = 1; i < s.records.size(); ++i) {
      if (s.records[i].day == s.records[i - 1].day) ++duplicates;
    }
  }
  EXPECT_EQ(duplicates, injector.stats().of(FaultMode::kDuplicateDay));
}

TEST(FaultInjector, OutOfOrderAndRollbackBreakDayOrder) {
  for (FaultMode mode :
       {FaultMode::kOutOfOrderUpload, FaultMode::kClockRollback}) {
    FaultInjector injector({{{mode, 0.1}}, 7});
    const auto corrupted = injector.corrupt(tiny_batch());
    ASSERT_GT(injector.stats().of(mode), 0u) << fault_mode_name(mode);
    std::size_t inversions = 0;
    for (const auto& s : corrupted) {
      for (std::size_t i = 1; i < s.records.size(); ++i) {
        if (s.records[i].day < s.records[i - 1].day) ++inversions;
      }
    }
    EXPECT_GT(inversions, 0u) << fault_mode_name(mode);
  }
}

TEST(FaultInjector, CounterResetMakesMonotoneCounterDecrease) {
  FaultInjector injector({{{FaultMode::kCounterReset, 0.05}}, 11});
  const auto clean = tiny_batch();
  const auto corrupted = injector.corrupt(clean);
  ASSERT_GT(injector.stats().of(FaultMode::kCounterReset), 0u);
  std::size_t decreases = 0;
  const auto poh = static_cast<std::size_t>(SmartAttr::kPowerOnHours);
  for (const auto& s : corrupted) {
    for (std::size_t i = 1; i < s.records.size(); ++i) {
      if (s.records[i].smart[poh] < s.records[i - 1].smart[poh]) ++decreases;
    }
  }
  EXPECT_GT(decreases, 0u);
}

TEST(FaultInjector, BadValueModesProduceDetectableFields) {
  const auto clean = tiny_batch();
  {
    FaultInjector injector({{{FaultMode::kNanField, 0.05}}, 13});
    const auto corrupted = injector.corrupt(clean);
    std::size_t nans = 0;
    for (const auto& s : corrupted)
      for (const auto& r : s.records)
        for (std::size_t k = 0; k < kNumSmartAttrs; ++k)
          if (std::isnan(r.smart[k])) ++nans;
    EXPECT_EQ(nans, injector.stats().of(FaultMode::kNanField));
    EXPECT_GT(nans, 0u);
  }
  {
    FaultInjector injector({{{FaultMode::kNegativeField, 0.05}}, 13});
    const auto corrupted = injector.corrupt(clean);
    std::size_t negatives = 0;
    for (const auto& s : corrupted)
      for (const auto& r : s.records)
        for (std::size_t k = 0; k < kNumSmartAttrs; ++k)
          if (r.smart[k] < 0.0f) ++negatives;
    EXPECT_GT(negatives, 0u);
  }
  {
    FaultInjector injector({{{FaultMode::kSaturatedField, 0.05}}, 13});
    const auto corrupted = injector.corrupt(clean);
    ASSERT_GT(injector.stats().of(FaultMode::kSaturatedField), 0u);
    EXPECT_FALSE(batches_equal(corrupted, clean));
  }
}

TEST(FaultInjector, DuplicateDriveIdGrowsBatchWithRepeatedIds) {
  FaultInjector injector({{{FaultMode::kDuplicateDriveId, 0.1}}, 17});
  const auto clean = tiny_batch();
  const auto corrupted = injector.corrupt(clean);
  const std::size_t injected =
      injector.stats().of(FaultMode::kDuplicateDriveId);
  ASSERT_GT(injected, 0u);
  EXPECT_EQ(corrupted.size(), clean.size() + injected);
  std::set<std::uint64_t> seen;
  std::size_t repeats = 0;
  for (const auto& s : corrupted) {
    if (!seen.insert(s.drive_id).second) ++repeats;
  }
  EXPECT_EQ(repeats, injected);
}

TEST(FaultInjector, TextualModesMangleRowsButNeverTheHeader) {
  const std::string csv = tiny_csv();
  const std::string header = csv.substr(0, csv.find('\n'));
  const std::size_t arity = telemetry_csv_header().size();
  for (FaultMode mode : {FaultMode::kDroppedColumn, FaultMode::kTruncatedRow,
                         FaultMode::kMalformedFirmware}) {
    ASSERT_TRUE(fault_mode_is_textual(mode));
    FaultInjector injector({{{mode, 0.05}}, 19});
    const std::string corrupted = injector.corrupt_csv(csv);
    ASSERT_GT(injector.stats().of(mode), 0u) << fault_mode_name(mode);
    EXPECT_EQ(corrupted.substr(0, corrupted.find('\n')), header);
    std::stringstream ss(corrupted);
    std::string line;
    std::getline(ss, line);  // header
    std::size_t bad_arity = 0, bad_firmware = 0;
    while (std::getline(ss, line)) {
      const auto fields = split(line, ',');
      if (fields.size() != arity) ++bad_arity;
      if (fields.size() > 6 && fields[6] == "fw_corrupt!") ++bad_firmware;
    }
    if (mode == FaultMode::kMalformedFirmware) {
      EXPECT_EQ(bad_firmware, injector.stats().of(mode));
    } else {
      EXPECT_GT(bad_arity, 0u) << fault_mode_name(mode);
    }
  }
}

TEST(FaultInjector, TicketImtDisplacedOutsideWindow) {
  FleetSimulator fleet(tiny_scenario(3));
  auto tickets = fleet.tickets();
  ASSERT_FALSE(tickets.empty());
  const DayIndex lo = 0, hi = 365;
  FaultInjector injector({{{FaultMode::kTicketImtOutOfWindow, 1.0}}, 23});
  const auto corrupted = injector.corrupt_tickets(tickets, lo, hi);
  ASSERT_EQ(corrupted.size(), tickets.size());
  EXPECT_EQ(injector.stats().of(FaultMode::kTicketImtOutOfWindow),
            tickets.size());
  for (const auto& t : corrupted) {
    EXPECT_TRUE(t.imt < lo || t.imt > hi) << "imt=" << t.imt;
  }
}

TEST(FaultInjector, ComposedPlanAppliesEveryRequestedMode) {
  FaultPlan plan;
  plan.seed = 29;
  plan.faults = {{FaultMode::kDuplicateDay, 0.1},
                 {FaultMode::kClockRollback, 0.1},
                 {FaultMode::kNanField, 0.1}};
  FaultInjector injector(plan);
  (void)injector.corrupt(tiny_batch());
  for (const auto& spec : plan.faults) {
    EXPECT_GT(injector.stats().of(spec.mode), 0u)
        << fault_mode_name(spec.mode);
  }
  EXPECT_EQ(total_injected(injector.stats()),
            injector.stats().of(FaultMode::kDuplicateDay) +
                injector.stats().of(FaultMode::kClockRollback) +
                injector.stats().of(FaultMode::kNanField));
}

// --- on-disk durable-state modes -------------------------------------------

namespace fs = std::filesystem;

class DiskFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("mfpa_diskfault_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_ / "wal");
    fs::create_directories(dir_ / "ckpt");
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path make_file(const fs::path& rel, std::size_t bytes) {
    const fs::path path = dir_ / rel;
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    for (std::size_t i = 0; i < bytes; ++i) {
      os.put(static_cast<char>('A' + i % 23));
    }
    return path;
  }

  static std::string bytes_of(const fs::path& path) {
    std::ifstream is(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
  }

  fs::path dir_;
};

TEST_F(DiskFaultTest, DiskModePredicatesArePartitioned) {
  for (std::size_t m = 0; m < kNumFaultModes; ++m) {
    const auto mode = static_cast<FaultMode>(m);
    const int kinds = (fault_mode_is_textual(mode) ? 1 : 0) +
                      (fault_mode_is_ticket(mode) ? 1 : 0) +
                      (fault_mode_is_disk(mode) ? 1 : 0);
    EXPECT_LE(kinds, 1) << fault_mode_name(mode);
  }
  EXPECT_TRUE(fault_mode_is_disk(FaultMode::kTornFinalWrite));
  EXPECT_TRUE(fault_mode_is_disk(FaultMode::kStaleCheckpoint));
  EXPECT_FALSE(fault_mode_is_disk(FaultMode::kNanField));
}

TEST_F(DiskFaultTest, TornFinalWriteTrimsTrailingBytes) {
  const auto path = make_file("wal/c0.wal", 500);
  const std::string before = bytes_of(path);
  FaultInjector injector({{{FaultMode::kTornFinalWrite, 1.0}}, 31});
  injector.corrupt_file(path.string(), FaultMode::kTornFinalWrite);
  const std::string after = bytes_of(path);
  ASSERT_LT(after.size(), before.size());
  EXPECT_GE(after.size(), before.size() - 40);
  EXPECT_EQ(before.compare(0, after.size(), after), 0);  // prefix untouched
  EXPECT_EQ(injector.stats().of(FaultMode::kTornFinalWrite), 1u);
}

TEST_F(DiskFaultTest, BitFlipChangesExactlyOneBit) {
  const auto path = make_file("wal/c0.wal", 300);
  const std::string before = bytes_of(path);
  FaultInjector injector({{{FaultMode::kBitFlip, 1.0}}, 37});
  injector.corrupt_file(path.string(), FaultMode::kBitFlip);
  const std::string after = bytes_of(path);
  ASSERT_EQ(after.size(), before.size());
  int bits_changed = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    unsigned char diff = static_cast<unsigned char>(before[i] ^ after[i]);
    while (diff != 0) {
      bits_changed += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(bits_changed, 1);
}

TEST_F(DiskFaultTest, DuplicateSegmentDoublesTheFile) {
  const auto path = make_file("wal/c0.wal", 200);
  const std::string before = bytes_of(path);
  FaultInjector injector({{{FaultMode::kDuplicateSegment, 1.0}}, 41});
  injector.corrupt_file(path.string(), FaultMode::kDuplicateSegment);
  const std::string after = bytes_of(path);
  EXPECT_EQ(after, before + before);
}

TEST_F(DiskFaultTest, StaleCheckpointDeletesOnlyTheNewest) {
  make_file("ckpt/ckpt-512.mfc", 64);
  make_file("ckpt/ckpt-4096.mfc", 64);  // numerically newest, lex. smallest
  make_file("wal/c4096.wal", 64);
  FaultInjector injector({{{FaultMode::kStaleCheckpoint, 1.0}}, 43});
  EXPECT_EQ(injector.corrupt_durable_dir(dir_.string()), 1u);
  EXPECT_FALSE(fs::exists(dir_ / "ckpt" / "ckpt-4096.mfc"));
  EXPECT_TRUE(fs::exists(dir_ / "ckpt" / "ckpt-512.mfc"));
  EXPECT_TRUE(fs::exists(dir_ / "wal" / "c4096.wal"));
}

TEST_F(DiskFaultTest, DurableDirSweepIsDeterministic) {
  auto populate = [&](const fs::path& root) {
    for (const char* rel : {"wal/c0.wal", "wal/c10.wal", "ckpt/ckpt-10.mfc",
                            "ckpt/ckpt-20.mfc"}) {
      fs::create_directories((root / rel).parent_path());
      std::ofstream os(root / rel, std::ios::binary);
      for (int i = 0; i < 400; ++i) os.put(static_cast<char>('a' + i % 17));
    }
  };
  const fs::path other = dir_ / "twin";
  populate(dir_);
  populate(other);
  FaultPlan plan;
  plan.seed = 47;
  plan.faults = {{FaultMode::kTornFinalWrite, 0.5},
                 {FaultMode::kBitFlip, 0.5},
                 {FaultMode::kFileTruncation, 0.5}};
  FaultInjector a(plan);
  FaultInjector b(plan);
  const std::size_t injected_a = a.corrupt_durable_dir(dir_.string());
  const std::size_t injected_b = b.corrupt_durable_dir(other.string());
  EXPECT_EQ(injected_a, injected_b);
  ASSERT_GT(injected_a, 0u);
  for (const char* rel :
       {"wal/c0.wal", "wal/c10.wal", "ckpt/ckpt-10.mfc", "ckpt/ckpt-20.mfc"}) {
    EXPECT_EQ(bytes_of(dir_ / rel), bytes_of(other / rel)) << rel;
  }
}

TEST_F(DiskFaultTest, ZeroRatePlanTouchesNothing) {
  const auto wal = make_file("wal/c0.wal", 128);
  const auto ckpt = make_file("ckpt/ckpt-5.mfc", 128);
  const std::string wal_before = bytes_of(wal);
  const std::string ckpt_before = bytes_of(ckpt);
  FaultPlan plan;
  plan.seed = 53;
  for (std::size_t m = 0; m < kNumFaultModes; ++m) {
    plan.faults.push_back({static_cast<FaultMode>(m), 0.0});
  }
  FaultInjector injector(plan);
  EXPECT_EQ(injector.corrupt_durable_dir(dir_.string()), 0u);
  EXPECT_EQ(bytes_of(wal), wal_before);
  EXPECT_EQ(bytes_of(ckpt), ckpt_before);
  EXPECT_TRUE(fs::exists(ckpt));
}

}  // namespace
}  // namespace mfpa::sim
