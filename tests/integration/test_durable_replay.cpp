// Crash-recovery proof for the durable scoring service, driven through the
// real CLI binary: a baseline run, a run killed mid-stream with SIGKILL (as
// close to power loss as a process can get), and a resuming run whose final
// alert stream must be byte-identical to the baseline's. Disk-fault
// variants then corrupt the durable directory between the kill and the
// resume: recovery either absorbs the damage (torn tails, a deleted newest
// checkpoint) and still reproduces the baseline bytes, or refuses loudly —
// never a silently wrong alert stream.
//
// The three runs share one model registry (--reuse-registry): recovery
// refuses to replay WAL records under a model the crashed process never
// scored with, so the test would fail loudly if each run retrained.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "sim/fault_injector.hpp"

#ifndef MFPA_CLI_BINARY
#error "MFPA_CLI_BINARY must point at the mfpa executable"
#endif

namespace mfpa {
namespace {
namespace fs = std::filesystem;

// The tiny scenario at seed 7 replays 14233 records; killing at 9000 leaves
// the startup checkpoint, the one at LSN 4096 (published, or still being
// written) and a WAL tail on disk, so every recovery shape (checkpoint +
// tail, checkpoint fallback, a dot-temp orphan) is reachable.
constexpr const char* kCommonArgs =
    "serve-replay --scenario=tiny --seed=7 --threads=2 "
    "--checkpoint-interval=4096";
constexpr std::size_t kKillAfter = 9000;
// A checkpoint is published some time after the drain loop hands it to the
// I/O thread, and the next one waits for it. The drain loop trails the
// feed by at most the 4096-record queue plus one batch, so at 14000
// submissions it has handed off the second periodic checkpoint, and the
// two checkpoints published before that one are on disk.
constexpr std::size_t kKillAfterTwoPublished = 14000;

std::string read_bytes(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

class DurableReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            (std::string("mfpa_durable_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
    registry_ = root_ / "registry";
    durable_ = root_ / "durable";
  }
  void TearDown() override { fs::remove_all(root_); }

  /// Runs the CLI with the shared scenario/registry flags plus `extra`,
  /// capturing stdout+stderr to `<root>/<log_name>.log`. Returns the exit
  /// code (128 + signal for a signalled child — SIGKILL surfaces as 137).
  int run_cli(const std::string& extra, const std::string& log_name) {
    const std::string cmd = std::string(MFPA_CLI_BINARY) + " " + kCommonArgs +
                            " --registry=" + registry_.string() + " " + extra +
                            " > " + (root_ / (log_name + ".log")).string() +
                            " 2>&1";
    const int status = std::system(cmd.c_str());
    if (status == -1) return -1;
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
    return -1;
  }

  std::string log_of(const std::string& log_name) const {
    return read_bytes(root_ / (log_name + ".log"));
  }

  /// Baseline (trains + publishes the shared model) and the SIGKILLed
  /// durable run every recovery test starts from.
  void baseline_then_kill(std::size_t kill_after = kKillAfter) {
    ASSERT_EQ(run_cli("--alerts-out=" + (root_ / "base.alerts").string(),
                      "baseline"),
              0)
        << log_of("baseline");
    baseline_alerts_ = read_bytes(root_ / "base.alerts");
    ASSERT_FALSE(baseline_alerts_.empty());
    ASSERT_EQ(run_cli("--reuse-registry --durable-dir=" + durable_.string() +
                          " --kill-after=" + std::to_string(kill_after),
                      "crash"),
              137)
        << log_of("crash");
    ASSERT_TRUE(fs::exists(durable_ / "wal"));
    ASSERT_TRUE(fs::exists(durable_ / "ckpt"));
  }

  /// Resumes from `durable_` and returns the exit code; on success the
  /// resumed alert bytes land in `resumed_alerts_`.
  int resume(const std::string& log_name) {
    const fs::path out = root_ / (log_name + ".alerts");
    const int rc = run_cli("--reuse-registry --durable-dir=" +
                               durable_.string() + " --alerts-out=" +
                               out.string(),
                           log_name);
    resumed_alerts_ = read_bytes(out);
    return rc;
  }

  fs::path root_, registry_, durable_;
  std::string baseline_alerts_, resumed_alerts_;
};

TEST_F(DurableReplayTest, KillAndResumeReproducesBaselineAlertsByteForByte) {
  baseline_then_kill();
  ASSERT_EQ(resume("resume"), 0) << log_of("resume");
  const std::string log = log_of("resume");
  EXPECT_NE(log.find("durable recovery:"), std::string::npos) << log;
  EXPECT_NE(log.find("resuming feed after"), std::string::npos) << log;
  EXPECT_EQ(resumed_alerts_, baseline_alerts_);
}

TEST_F(DurableReplayTest, SecondResumeAfterCleanShutdownIsIdempotent) {
  baseline_then_kill();
  ASSERT_EQ(resume("resume1"), 0) << log_of("resume1");
  ASSERT_EQ(resumed_alerts_, baseline_alerts_);
  // The first resume sealed everything; running again replays nothing new
  // and must reproduce the identical stream from durable state alone.
  ASSERT_EQ(resume("resume2"), 0) << log_of("resume2");
  EXPECT_EQ(resumed_alerts_, baseline_alerts_);
}

TEST_F(DurableReplayTest, TornFinalWritesAreAbsorbed) {
  baseline_then_kill();
  // Tear the tail of every WAL segment: those records were never
  // acknowledged durable, so the resuming feed re-delivers them.
  sim::FaultInjector injector({{{sim::FaultMode::kTornFinalWrite, 1.0}}, 61});
  std::uint64_t salt = 0;
  for (const auto& entry : fs::directory_iterator(durable_ / "wal")) {
    injector.corrupt_file(entry.path().string(),
                          sim::FaultMode::kTornFinalWrite, ++salt);
  }
  ASSERT_GT(injector.stats().of(sim::FaultMode::kTornFinalWrite), 0u);
  ASSERT_EQ(resume("resume"), 0) << log_of("resume");
  EXPECT_EQ(resumed_alerts_, baseline_alerts_);
}

TEST_F(DurableReplayTest, StaleCheckpointFallsBackAndStillMatches) {
  baseline_then_kill();
  // Delete the newest checkpoint: recovery must fall back to the retained
  // older one and replay the longer WAL tail over it.
  sim::FaultInjector injector({{{sim::FaultMode::kStaleCheckpoint, 1.0}}, 67});
  ASSERT_EQ(injector.corrupt_durable_dir(durable_.string()), 1u);
  ASSERT_EQ(resume("resume"), 0) << log_of("resume");
  EXPECT_EQ(resumed_alerts_, baseline_alerts_);
}

TEST_F(DurableReplayTest, BitFlipRecoversOrFailsLoudlyNeverSilentlyWrong) {
  baseline_then_kill();
  sim::FaultInjector injector({{{sim::FaultMode::kBitFlip, 1.0}}, 71});
  for (const auto& entry : fs::directory_iterator(durable_ / "wal")) {
    injector.corrupt_file(entry.path().string(), sim::FaultMode::kBitFlip);
    break;  // one flipped segment is the scenario
  }
  const int rc = resume("resume");
  if (rc == 0) {
    // The flip landed in a discardable tail; the stream must still match.
    EXPECT_EQ(resumed_alerts_, baseline_alerts_);
  } else {
    // Mid-stream corruption: recovery must refuse, not rebuild over a hole.
    EXPECT_NE(log_of("resume").find("wal"), std::string::npos);
  }
}

TEST_F(DurableReplayTest, EveryCheckpointCorruptRefusesLoudly) {
  baseline_then_kill(kKillAfterTwoPublished);
  sim::FaultInjector injector({{{sim::FaultMode::kBitFlip, 1.0}}, 73});
  std::uint64_t salt = 100;
  for (const auto& entry : fs::directory_iterator(durable_ / "ckpt")) {
    injector.corrupt_file(entry.path().string(), sim::FaultMode::kBitFlip,
                          ++salt);
  }
  ASSERT_GE(injector.stats().of(sim::FaultMode::kBitFlip), 2u);
  EXPECT_NE(resume("resume"), 0);
  EXPECT_NE(log_of("resume").find("checkpoint"), std::string::npos)
      << log_of("resume");
}

TEST_F(DurableReplayTest, ResumeUnderTheOtherIngestModeIsRefused) {
  // A strict store image carries no sanitizer state, so a --lenient resume
  // cannot continue it: recovery refuses loudly, naming both modes.
  baseline_then_kill();
  const int rc = run_cli("--reuse-registry --lenient --durable-dir=" +
                             durable_.string(),
                         "lenient");
  EXPECT_EQ(rc, 2) << log_of("lenient");
  const std::string log = log_of("lenient");
  EXPECT_NE(log.find("written under --strict"), std::string::npos) << log;
  EXPECT_NE(log.find("ingests --lenient"), std::string::npos) << log;
}

}  // namespace
}  // namespace mfpa
