#include "serve/checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/drive_state_store.hpp"
#include "serve/wal.hpp"

namespace mfpa::serve {
namespace {
namespace fs = std::filesystem;

sim::DailyRecord make_record(DayIndex day, float base) {
  sim::DailyRecord rec;
  rec.day = day;
  for (std::size_t i = 0; i < rec.smart.size(); ++i) {
    rec.smart[i] = base + static_cast<float>(i);
  }
  rec.w[0] = static_cast<std::uint16_t>(day);
  rec.b[1] = 2;
  return rec;
}

std::string store_image(const DriveStateStore& store) {
  std::ostringstream os;
  store.save_state(os);
  return os.str();
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("mfpa_ckpt_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  DurabilityConfig durability_config() const {
    DurabilityConfig config;
    config.dir = dir_.string();
    config.fsync = false;  // throwaway tmpdir
    config.checkpoint_interval_records = 0;  // explicit checkpoints only
    return config;
  }

  /// Feeds `n` records for `drives` drives through both the manager's WAL
  /// and the store — the engine's WAL-before-apply discipline in miniature.
  static void feed(DurabilityManager& manager, DriveStateStore& store,
                   int drives, int n, DayIndex day0) {
    std::vector<PendingRow> rows;
    for (int day = 0; day < n; ++day) {
      for (int d = 0; d < drives; ++d) {
        const std::uint64_t id = static_cast<std::uint64_t>(d + 1);
        const sim::DailyRecord rec = make_record(day0 + day, 1.5f + d);
        manager.append(id, 0, rec);
        store.ingest(id, 0, rec, rows);
      }
    }
  }

  /// Feeds 4-record batches with the engine's per-batch cadence, raising an
  /// alert per batch, until a call throws. The failure must name `file` and
  /// stay: every later flush, checkpoint_now and group hand-off throws too.
  static void expect_rethrown(DurabilityManager& manager,
                              DriveStateStore& store, const std::string& file) {
    std::vector<PendingRow> rows;
    try {
      for (int day = 0; day < 64; ++day) {
        for (int d = 1; d <= 4; ++d) {
          const sim::DailyRecord rec = make_record(day, 1.5f + d);
          manager.append(static_cast<std::uint64_t>(d), 0, rec);
          store.ingest(static_cast<std::uint64_t>(d), 0, rec, rows);
        }
        manager.append_alert({1, day, 0.9});
        manager.on_batch_end(store, 1);
      }
      manager.flush();
      ADD_FAILURE() << "a failed write was swallowed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(file), std::string::npos)
          << e.what();
    }
    EXPECT_THROW(manager.flush(), std::runtime_error);
    EXPECT_THROW(manager.checkpoint_now(store, 1), std::runtime_error);
    EXPECT_THROW(
        for (int i = 0; i < 8; ++i) manager.append(9, 0, make_record(99, 1.0f)),
        std::runtime_error);
  }

  fs::path dir_;
};

TEST_F(CheckpointTest, CheckpointFileRoundTrips) {
  DriveStateStore store(StoreConfig{});
  std::vector<PendingRow> rows;
  for (int day = 0; day < 12; ++day) {
    store.ingest(7, 0, make_record(day, 2.0f), rows);
  }
  const std::string path = (dir_ / "ckpt-42.mfc").string();
  write_checkpoint_file(path, store, 42, 5, 3, /*fsync=*/false);

  const CheckpointImage image = load_checkpoint_file(path);
  EXPECT_EQ(image.lsn, 42u);
  EXPECT_EQ(image.alert_count, 5u);
  EXPECT_EQ(image.model_version, 3);
  EXPECT_EQ(image.store_state, store_image(store));

  DriveStateStore restored(StoreConfig{});
  std::istringstream is(image.store_state);
  restored.load_state(is);
  EXPECT_EQ(store_image(restored), store_image(store));
}

TEST_F(CheckpointTest, CorruptPayloadIsRejected) {
  DriveStateStore store(StoreConfig{});
  const std::string path = (dir_ / "ckpt-1.mfc").string();
  write_checkpoint_file(path, store, 1, 0, 1, /*fsync=*/false);

  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(is)),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() / 2] ^= 0x04;
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(load_checkpoint_file(path), std::runtime_error);
}

TEST_F(CheckpointTest, BitFlipAtEveryOffsetIsRejected) {
  DriveStateStore store(StoreConfig{});
  std::vector<PendingRow> rows;
  for (int day = 0; day < 4; ++day) {
    store.ingest(7, 0, make_record(day, 2.0f), rows);
  }
  const std::string path = (dir_ / "ckpt-9.mfc").string();
  write_checkpoint_file(path, store, 9, 2, 1, /*fsync=*/false);
  std::string pristine;
  {
    std::ifstream is(path, std::ios::binary);
    pristine.assign((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
  }
  // Header or payload: the text header must not parse to the same values
  // and the digest covers every payload byte, so no flip ever loads. The
  // flipped bit rotates with the offset, so every bit position is hit.
  for (std::size_t pos = 0; pos < pristine.size(); ++pos) {
    std::string corrupt = pristine;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << (pos % 8)));
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    }
    EXPECT_THROW(load_checkpoint_file(path), std::runtime_error)
        << "byte " << pos;
  }
}

TEST_F(CheckpointTest, ListCheckpointsSortsByLsnNumerically) {
  DriveStateStore store(StoreConfig{});
  fs::create_directories(dir_ / "ckpt");
  for (const std::uint64_t lsn : {512u, 4096u, 40u}) {
    write_checkpoint_file((dir_ / "ckpt" / ("ckpt-" + std::to_string(lsn) +
                                            ".mfc")).string(),
                          store, lsn, 0, 1, false);
  }
  const auto listed = list_checkpoints(dir_.string());
  ASSERT_EQ(listed.size(), 3u);
  EXPECT_EQ(listed[0].first, 40u);   // lexicographic would put 4096 first
  EXPECT_EQ(listed[1].first, 512u);
  EXPECT_EQ(listed[2].first, 4096u);
}

TEST_F(CheckpointTest, FullCycleCheckpointThenRecover) {
  std::string live_image;
  {
    DriveStateStore store(StoreConfig{});
    DurabilityManager manager(durability_config());
    const auto fresh = manager.recover(store, 1);
    EXPECT_FALSE(fresh.checkpoint_loaded);
    EXPECT_TRUE(fresh.tail.empty());
    manager.finish_recovery(store, 1);

    feed(manager, store, /*drives=*/3, /*n=*/10, /*day0=*/0);
    manager.append_alert({2, 8, 0.91});
    manager.checkpoint_now(store, 1);
    feed(manager, store, 3, 4, 10);  // post-checkpoint tail, flushed not ckpted
    manager.flush();
    live_image = store_image(store);
    EXPECT_EQ(manager.last_lsn(), 42u);
  }
  // "Crash": nothing sealed after the flush. A fresh manager must land the
  // checkpoint plus a 12-record WAL tail.
  DriveStateStore store(StoreConfig{});
  DurabilityManager manager(durability_config());
  const auto recovered = manager.recover(store, 1);
  EXPECT_TRUE(recovered.checkpoint_loaded);
  EXPECT_EQ(recovered.checkpoint_lsn, 30u);
  EXPECT_EQ(recovered.model_version, 1);
  ASSERT_EQ(recovered.tail.size(), 12u);
  EXPECT_EQ(recovered.tail.front().lsn, 31u);
  EXPECT_EQ(recovered.durable_records, 42u);
  ASSERT_EQ(recovered.alerts.size(), 1u);
  EXPECT_EQ(recovered.alerts.front().drive_id, 2u);

  // Re-applying the tail through the store reproduces the live state.
  std::vector<PendingRow> rows;
  for (const auto& entry : recovered.tail) {
    store.ingest(entry.drive_id, entry.vendor, entry.record, rows);
  }
  EXPECT_EQ(store_image(store), live_image);
  manager.finish_recovery(store, 1);
  EXPECT_EQ(manager.last_lsn(), 42u);
}

TEST_F(CheckpointTest, RecoveryIsIdempotent) {
  {
    DriveStateStore store(StoreConfig{});
    DurabilityManager manager(durability_config());
    manager.recover(store, 2);
    manager.finish_recovery(store, 2);
    feed(manager, store, 2, 6, 0);
    manager.checkpoint_now(store, 2);
  }
  std::string first_image;
  for (int round = 0; round < 2; ++round) {
    // Recover, seal, and crash again without appending anything: every
    // round must land on the identical state and LSN.
    DriveStateStore store(StoreConfig{});
    DurabilityManager manager(durability_config());
    const auto recovered = manager.recover(store, 2);
    EXPECT_TRUE(recovered.checkpoint_loaded);
    EXPECT_TRUE(recovered.tail.empty());
    EXPECT_EQ(recovered.durable_records, 12u);
    manager.finish_recovery(store, 2);
    if (round == 0) {
      first_image = store_image(store);
    } else {
      EXPECT_EQ(store_image(store), first_image);
    }
  }
}

TEST_F(CheckpointTest, FallsBackToOlderCheckpointWhenNewestIsCorrupt) {
  {
    DriveStateStore store(StoreConfig{});
    DurabilityManager manager(durability_config());
    manager.recover(store, 1);
    manager.finish_recovery(store, 1);
    feed(manager, store, 2, 5, 0);
    manager.checkpoint_now(store, 1);  // ckpt @ 10
    feed(manager, store, 2, 5, 5);
    manager.checkpoint_now(store, 1);  // ckpt @ 20
  }
  // Corrupt the newest checkpoint; the WAL retains segments back to the
  // previous one, so recovery replays LSNs 11..20 over it instead.
  const auto ckpts = list_checkpoints(dir_.string());
  ASSERT_GE(ckpts.size(), 2u);
  {
    std::fstream f(ckpts.back().second,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(30);
    f.put('\x7f');
  }
  DriveStateStore store(StoreConfig{});
  DurabilityManager manager(durability_config());
  const auto recovered = manager.recover(store, 1);
  EXPECT_TRUE(recovered.checkpoint_loaded);
  EXPECT_EQ(recovered.checkpoint_lsn, 10u);
  EXPECT_EQ(recovered.checkpoints_skipped, 1u);
  ASSERT_EQ(recovered.tail.size(), 10u);
  EXPECT_EQ(recovered.durable_records, 20u);
}

TEST_F(CheckpointTest, RefusesWhenEveryCheckpointIsCorrupt) {
  {
    DriveStateStore store(StoreConfig{});
    DurabilityManager manager(durability_config());
    manager.recover(store, 1);
    manager.finish_recovery(store, 1);
    feed(manager, store, 1, 4, 0);
    manager.checkpoint_now(store, 1);
  }
  for (const auto& [lsn, path] : list_checkpoints(dir_.string())) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(25);
    f.put('\x7f');
  }
  DriveStateStore store(StoreConfig{});
  DurabilityManager manager(durability_config());
  EXPECT_THROW(manager.recover(store, 1), std::runtime_error);
}

TEST_F(CheckpointTest, ModelVersionMismatchRefusesLoudly) {
  {
    DriveStateStore store(StoreConfig{});
    DurabilityManager manager(durability_config());
    manager.recover(store, 4);
    manager.finish_recovery(store, 4);
    feed(manager, store, 1, 3, 0);
    manager.checkpoint_now(store, 4);
  }
  DriveStateStore store(StoreConfig{});
  DurabilityManager manager(durability_config());
  EXPECT_THROW(manager.recover(store, 5), std::runtime_error);
}

TEST_F(CheckpointTest, WalOnlyStartReplaysEverything) {
  {
    // A writer that never checkpoints: the durable state is the WAL alone.
    WalWriterConfig config;
    config.dir = dir_.string();
    config.fsync = false;
    WalWriter writer(config);
    writer.open_generation(0);
    for (int i = 0; i < 9; ++i) {
      writer.append(static_cast<std::uint64_t>(i % 2 + 1), 0,
                    make_record(i / 2, 3.0f));
    }
    writer.flush();
  }
  DriveStateStore store(StoreConfig{});
  DurabilityManager manager(durability_config());
  const auto recovered = manager.recover(store, 1);
  EXPECT_FALSE(recovered.checkpoint_loaded);
  EXPECT_EQ(recovered.tail.size(), 9u);
  EXPECT_EQ(recovered.durable_records, 9u);
}

TEST_F(CheckpointTest, RetainsOnlyTwoNewestCheckpoints) {
  DriveStateStore store(StoreConfig{});
  DurabilityManager manager(durability_config());
  manager.recover(store, 1);
  manager.finish_recovery(store, 1);
  for (int round = 0; round < 5; ++round) {
    feed(manager, store, 1, 2, round * 2);
    manager.checkpoint_now(store, 1);
  }
  const auto ckpts = list_checkpoints(dir_.string());
  ASSERT_EQ(ckpts.size(), 2u);
  EXPECT_EQ(ckpts.back().first, manager.last_lsn());
}

TEST_F(CheckpointTest, DotTempOrphanIsRemovedAndNeverLoaded) {
  {
    DriveStateStore store(StoreConfig{});
    DurabilityManager manager(durability_config());
    manager.recover(store, 1);
    manager.finish_recovery(store, 1);
    feed(manager, store, 2, 3, 0);
    manager.checkpoint_now(store, 1);  // ckpt @ 6
  }
  // A crash mid-publish of a newer checkpoint left its dot-temp behind.
  const fs::path orphan = dir_ / "ckpt" / ".ckpt-9.mfc.tmp";
  std::ofstream(orphan, std::ios::binary) << "mfpa_ckpt 1 9 garbage";
  DriveStateStore store(StoreConfig{});
  DurabilityManager manager(durability_config());
  const auto recovered = manager.recover(store, 1);
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_TRUE(recovered.checkpoint_loaded);
  EXPECT_EQ(recovered.checkpoint_lsn, 6u);
  EXPECT_EQ(recovered.checkpoints_skipped, 0u);
}

TEST_F(CheckpointTest, StartupSealCountsItsBytes) {
  auto isolated = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride override_metrics(*isolated);
  DriveStateStore store(StoreConfig{});
  DurabilityManager manager(durability_config());
  manager.recover(store, 1);
  manager.finish_recovery(store, 1);
  const auto ckpts = list_checkpoints(dir_.string());
  ASSERT_EQ(ckpts.size(), 1u);
  EXPECT_EQ(isolated->counter("mfpa_ckpt_writes_total").value(), 1u);
  EXPECT_EQ(isolated->counter("mfpa_ckpt_bytes_total").value(),
            fs::file_size(ckpts.front().second));
}

// A failed write on the I/O thread reaches the drain thread, and nothing
// is published after it. Here the first periodic checkpoint's image write
// fails (ENOSPC).
TEST_F(CheckpointTest, FailedImageWriteIsRethrownAndNothingIsPublished) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "needs /dev/full";
  DurabilityConfig config = durability_config();
  config.group_commit_records = 4;
  config.checkpoint_interval_records = 16;
  {
    DriveStateStore store(StoreConfig{});
    DurabilityManager manager(config);
    manager.recover(store, 1);
    manager.finish_recovery(store, 1);  // ckpt-0.mfc
    fs::create_symlink("/dev/full", dir_ / "ckpt" / ".ckpt-16.mfc.tmp");
    expect_rethrown(manager, store, ".ckpt-16.mfc.tmp");
  }  // the destructor neither hangs nor throws
  const auto ckpts = list_checkpoints(dir_.string());
  ASSERT_EQ(ckpts.size(), 1u);
  EXPECT_EQ(ckpts.front().first, 0u);
}

// The same for the alert frames a checkpoint counts: alerts.log is opened
// by its first write, on the I/O thread, and that write fails (ENOSPC).
TEST_F(CheckpointTest, FailedAlertWriteIsRethrownAndNothingIsPublished) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "needs /dev/full";
  DurabilityConfig config = durability_config();
  config.group_commit_records = 4;
  config.checkpoint_interval_records = 16;
  {
    DriveStateStore store(StoreConfig{});
    DurabilityManager manager(config);
    manager.recover(store, 1);
    manager.finish_recovery(store, 1);  // ckpt-0.mfc, no alert yet
    fs::create_symlink("/dev/full", dir_ / "alerts.log");
    expect_rethrown(manager, store, "alerts.log");
  }  // the destructor neither hangs nor throws
  const auto ckpts = list_checkpoints(dir_.string());
  ASSERT_EQ(ckpts.size(), 1u);
  EXPECT_EQ(ckpts.front().first, 0u);
}

TEST_F(CheckpointTest, AppendBeforeFinishRecoveryIsAContractViolation) {
  DriveStateStore store(StoreConfig{});
  DurabilityManager manager(durability_config());
  manager.recover(store, 1);
  EXPECT_THROW(manager.append(1, 0, make_record(0, 1.0f)), std::logic_error);
}

TEST_F(CheckpointTest, EmptyDirConfigIsRejected) {
  EXPECT_THROW(DurabilityManager{DurabilityConfig{}}, std::invalid_argument);
}

}  // namespace
}  // namespace mfpa::serve
