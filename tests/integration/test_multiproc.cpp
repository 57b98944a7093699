// Cross-process parity and crash-recovery proof for multi-process sharded
// serving, driven through the real CLI binary. The same fleet stream is
// replayed through every topology the serving stack offers — in-process
// router, shard-aware client over N shard-serve processes, and a
// forwarding router process in front of those shards — across shard
// counts 1 and 4, and every merged alert stream must be byte-identical.
// A second suite SIGKILLs one shard process mid-replay, asserts the
// supervisor surfaces the death (exit code 2, per-shard status 137), and
// proves a resumed run recovers from the per-shard WALs to reproduce the
// uninterrupted stream byte-for-byte.
//
// All runs inside a test share one model registry (--reuse-registry after
// the first): alert parity across topologies is only meaningful under one
// model, and WAL recovery refuses to replay under a model the killed
// processes never scored with.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#ifndef MFPA_CLI_BINARY
#error "MFPA_CLI_BINARY must point at the mfpa executable"
#endif

namespace mfpa {
namespace {
namespace fs = std::filesystem;

constexpr const char* kCommonArgs = "fleet-replay --scenario=tiny --seed=7";

std::string read_bytes(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

/// Value of one counter in a `--metrics-out` document: the entry whose
/// labels render as `labels` (e.g. `{"outcome": "signal"}`) and whose name
/// is `name`; -1 when absent.
long counter_value(const std::string& json, const std::string& name,
                   const std::string& labels = "{}") {
  const std::string entry =
      "{\"labels\": " + labels + ", \"name\": \"" + name +
      "\", \"type\": \"counter\", \"value\": ";
  const auto at = json.find(entry);
  if (at == std::string::npos) return -1;
  return std::stol(json.substr(at + entry.size()));
}

class MultiprocReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            (std::string("mfpa_multiproc_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
    registry_ = root_ / "registry";
  }
  void TearDown() override { fs::remove_all(root_); }

  /// Runs the CLI with the shared scenario/registry flags plus `extra`,
  /// capturing stdout+stderr to `<root>/<name>.log`. Every run after the
  /// first passes --reuse-registry so the whole test scores one model.
  int run_cli(const std::string& extra, const std::string& name) {
    std::string cmd = std::string(MFPA_CLI_BINARY) + " " + kCommonArgs +
                      " --registry=" + registry_.string();
    if (trained_) cmd += " --reuse-registry";
    trained_ = true;
    cmd += " --proc-dir=" + (root_ / ("proc-" + name)).string();
    cmd += " " + extra + " > " + (root_ / (name + ".log")).string() + " 2>&1";
    const int status = std::system(cmd.c_str());
    if (status == -1) return -1;
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
    return -1;
  }

  std::string log_of(const std::string& name) const {
    return read_bytes(root_ / (name + ".log"));
  }

  /// Runs one topology with --alerts-out and returns its alert bytes;
  /// asserts the run exited 0 and produced a non-empty stream.
  std::string alerts_of(const std::string& extra, const std::string& name) {
    const fs::path out = root_ / (name + ".alerts");
    EXPECT_EQ(run_cli(extra + " --alerts-out=" + out.string(), name), 0)
        << log_of(name);
    const std::string bytes = read_bytes(out);
    EXPECT_FALSE(bytes.empty()) << log_of(name);
    return bytes;
  }

  fs::path root_, registry_;
  bool trained_ = false;
};

TEST_F(MultiprocReplayTest, EveryTopologyProducesByteIdenticalAlerts) {
  // Reference: the in-process router with a single shard.
  const std::string baseline = alerts_of("--shards=1 --in-process", "inproc1");
  ASSERT_FALSE(baseline.empty());

  // In-process, 4 shards: drive-hash partitioning must not change alerts.
  EXPECT_EQ(alerts_of("--shards=4 --in-process", "inproc4"), baseline);

  // Shard-aware client feeding shard-serve OS processes directly.
  EXPECT_EQ(alerts_of("--processes=1", "direct1"), baseline);
  EXPECT_EQ(alerts_of("--processes=4", "direct4"), baseline);

  // Shard-oblivious client feeding a forwarding router process that fans
  // out to the shard processes.
  EXPECT_EQ(alerts_of("--processes=1 --via-router", "router1"), baseline);
  EXPECT_EQ(alerts_of("--processes=4 --via-router", "router4"), baseline);
}

TEST_F(MultiprocReplayTest, KilledShardProcessResumesToIdenticalAlerts) {
  // Uninterrupted multi-process reference stream (also trains the model).
  const std::string baseline = alerts_of("--processes=4", "baseline");
  ASSERT_FALSE(baseline.empty());

  // SIGKILL shard 2 mid-replay: the supervisor must report the signalled
  // child (137 = 128 + SIGKILL) and the run must exit 2, leaving durable
  // per-shard WAL state behind.
  const fs::path durable = root_ / "durable";
  const fs::path metrics = root_ / "crash.metrics.json";
  ASSERT_EQ(run_cli("--processes=4 --durable-dir=" + durable.string() +
                        " --kill-shard-after=9000 --kill-shard=2" +
                        " --metrics-out=" + metrics.string(),
                    "crash"),
            2)
      << log_of("crash");
  EXPECT_NE(log_of("crash").find("shard-2=137"), std::string::npos)
      << log_of("crash");
  ASSERT_TRUE(fs::exists(durable / "shard-002" / "wal")) << log_of("crash");

  // The supervisor families of the parent: four children spawned, one
  // killed, and every child reaped exactly once.
  const std::string json = read_bytes(metrics);
  EXPECT_EQ(counter_value(json, "mfpa_supervisor_spawns_total"), 4) << json;
  EXPECT_EQ(counter_value(json, "mfpa_supervisor_kills_total"), 1) << json;
  const long signalled = counter_value(json, "mfpa_supervisor_exits_total",
                                       "{\"outcome\": \"signal\"}");
  const long clean = counter_value(json, "mfpa_supervisor_exits_total",
                                   "{\"outcome\": \"clean\"}");
  EXPECT_EQ(signalled, 1) << json;
  EXPECT_EQ(clean + signalled, 4) << json;

  // Resume: fresh shard processes recover their slices from the WALs,
  // report durable progress, skip what was already absorbed, and the
  // merged stream must reproduce the uninterrupted bytes exactly.
  const fs::path out = root_ / "resume.alerts";
  ASSERT_EQ(run_cli("--processes=4 --durable-dir=" + durable.string() +
                        " --alerts-out=" + out.string(),
                    "resume"),
            0)
      << log_of("resume");
  EXPECT_NE(log_of("resume").find("resuming feed after"), std::string::npos)
      << log_of("resume");
  EXPECT_EQ(read_bytes(out), baseline);
}

}  // namespace
}  // namespace mfpa
