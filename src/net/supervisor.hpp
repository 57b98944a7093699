// Child-process supervisor for the multi-process sharded topology.
//
// The fleet-replay harness (`fleet-replay --processes=N`) runs one
// `mfpa shard-serve` process per shard. This supervisor owns their
// lifecycle: fork/exec with stdout+stderr redirected to a per-shard log
// file, readiness via a port file the child atomically publishes
// ("<port> <resume_records> <model_version>", dot-temp + rename, see
// cli shard-serve), non-blocking exit reaping, targeted SIGKILL for crash
// injection, and SIGTERM-then-wait graceful termination (a TERMed shard
// drains its queue, seals its WAL, writes its alerts file, and exits 0 —
// so "terminate_all() returned and every exit status is 0" *is* the
// durability barrier the replay harness relies on).
//
// Exit statuses are decoded shell-style: WEXITSTATUS for normal exits,
// 128 + signal for signal deaths (SIGKILL → 137), matching what the CI
// smoke greps for. Supervision events are counted in
// mfpa_supervisor_spawns_total / mfpa_supervisor_exits_total{outcome=} /
// mfpa_supervisor_kills_total.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace mfpa::net {

/// One child process to spawn: its argv (argv[0] = binary path), the
/// readiness file it will publish, and where its output goes.
struct ShardProcessSpec {
  std::vector<std::string> argv;
  std::string port_file;
  std::string log_file;
};

/// Parsed contents of a child's readiness file.
struct ShardReadiness {
  std::uint16_t port = 0;
  std::uint64_t resume_records = 0;
  std::uint32_t model_version = 0;
};

class ShardProcessSupervisor {
 public:
  /// Spawns every spec immediately. Throws std::runtime_error when a
  /// fork fails (already-spawned children are killed and reaped).
  explicit ShardProcessSupervisor(std::vector<ShardProcessSpec> specs);
  /// SIGKILLs and reaps anything still running.
  ~ShardProcessSupervisor();

  ShardProcessSupervisor(const ShardProcessSupervisor&) = delete;
  ShardProcessSupervisor& operator=(const ShardProcessSupervisor&) = delete;

  std::size_t count() const noexcept { return children_.size(); }

  /// Blocks until every child has published its readiness file. Throws
  /// std::runtime_error (naming the shard and its log file) when a child
  /// exits first or the timeout lapses.
  void wait_ready(std::chrono::milliseconds timeout);

  /// Per-shard readiness (valid after wait_ready).
  const std::vector<ShardReadiness>& readiness() const noexcept {
    return readiness_;
  }
  /// Convenience: readiness ports in shard order.
  std::vector<std::uint16_t> ports() const;

  /// SIGKILL shard i (crash injection). The exit shows up as status 137.
  void kill_shard(std::size_t i);

  /// SIGTERM every running child, then waits for each; children that
  /// ignore the TERM past `grace` are SIGKILLed. Idempotent.
  void terminate_all(
      std::chrono::milliseconds grace = std::chrono::seconds(30));

  /// Decoded exit status of shard i: WEXITSTATUS for normal exits,
  /// 128 + signal for signal deaths, -1 while still running.
  int exit_status(std::size_t i) const;

 private:
  struct Child {
    ShardProcessSpec spec;
    pid_t pid = -1;
    bool exited = false;
    int raw_status = 0;
  };

  std::vector<Child> children_;
  std::vector<ShardReadiness> readiness_;

  void spawn(Child& child);
  void reap(Child& child, int raw_status);
  /// Reaps any children that have exited (non-blocking). Safe to call
  /// repeatedly.
  void poll_exits();
};

}  // namespace mfpa::net
