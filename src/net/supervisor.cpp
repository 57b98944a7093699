#include "net/supervisor.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"

namespace mfpa::net {
namespace {

int decode_status(int raw) {
  if (WIFEXITED(raw)) return WEXITSTATUS(raw);
  if (WIFSIGNALED(raw)) return 128 + WTERMSIG(raw);
  return -1;
}

/// Parses "<port> <resume_records> <model_version>". Returns false while
/// the file is absent or incomplete (the rename makes partial contents
/// impossible, but a conservative parse costs nothing).
bool read_readiness(const std::string& path, ShardReadiness& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::uint64_t port = 0;
  std::uint64_t resume = 0;
  std::uint64_t version = 0;
  if (!(in >> port >> resume >> version)) return false;
  if (port == 0 || port > 0xFFFF) return false;
  out.port = static_cast<std::uint16_t>(port);
  out.resume_records = resume;
  out.model_version = static_cast<std::uint32_t>(version);
  return true;
}

}  // namespace

ShardProcessSupervisor::ShardProcessSupervisor(
    std::vector<ShardProcessSpec> specs) {
  children_.reserve(specs.size());
  readiness_.resize(specs.size());
  for (auto& spec : specs) {
    Child child;
    child.spec = std::move(spec);
    children_.push_back(std::move(child));
  }
  for (auto& child : children_) {
    try {
      spawn(child);
    } catch (...) {
      for (auto& started : children_) {
        if (started.pid > 0 && !started.exited) {
          ::kill(started.pid, SIGKILL);
          int raw = 0;
          ::waitpid(started.pid, &raw, 0);
          started.exited = true;
        }
      }
      throw;
    }
  }
}

ShardProcessSupervisor::~ShardProcessSupervisor() {
  for (auto& child : children_) {
    if (child.pid > 0 && !child.exited) {
      ::kill(child.pid, SIGKILL);
      int raw = 0;
      ::waitpid(child.pid, &raw, 0);
      reap(child, raw);
    }
  }
}

void ShardProcessSupervisor::spawn(Child& child) {
  // Stale readiness from a previous run must not satisfy wait_ready.
  ::unlink(child.spec.port_file.c_str());

  std::vector<char*> argv;
  argv.reserve(child.spec.argv.size() + 1);
  for (auto& arg : child.spec.argv) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("supervisor: fork failed: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    const int log_fd = ::open(child.spec.log_file.c_str(),
                              O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd >= 0) {
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      if (log_fd > STDERR_FILENO) ::close(log_fd);
    }
    ::execv(argv[0], argv.data());
    // Only reached when exec itself failed; 127 matches the shell's
    // command-not-found convention.
    ::_exit(127);
  }
  child.pid = pid;
  obs::registry().counter("mfpa_supervisor_spawns_total", {}).inc();
}

void ShardProcessSupervisor::reap(Child& child, int raw_status) {
  child.exited = true;
  child.raw_status = raw_status;
  obs::registry()
      .counter("mfpa_supervisor_exits_total",
               {{"outcome", WIFSIGNALED(raw_status) ? "signal" : "clean"}})
      .inc();
}

void ShardProcessSupervisor::poll_exits() {
  for (auto& child : children_) {
    if (child.pid <= 0 || child.exited) continue;
    int raw = 0;
    const pid_t rc = ::waitpid(child.pid, &raw, WNOHANG);
    if (rc == child.pid) reap(child, raw);
  }
}

int ShardProcessSupervisor::exit_status(std::size_t i) const {
  const Child& child = children_.at(i);
  return child.exited ? decode_status(child.raw_status) : -1;
}

void ShardProcessSupervisor::wait_ready(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::vector<bool> ready(children_.size(), false);
  for (;;) {
    poll_exits();
    bool all = true;
    for (std::size_t i = 0; i < children_.size(); ++i) {
      if (ready[i]) continue;
      if (children_[i].exited) {
        throw std::runtime_error(
            "supervisor: shard " + std::to_string(i) +
            " exited with status " + std::to_string(exit_status(i)) +
            " before becoming ready; see " + children_[i].spec.log_file);
      }
      if (read_readiness(children_[i].spec.port_file, readiness_[i])) {
        ready[i] = true;
      } else {
        all = false;
      }
    }
    if (all) return;
    if (std::chrono::steady_clock::now() >= deadline) {
      std::ostringstream msg;
      msg << "supervisor: timed out waiting for shard readiness (pending:";
      for (std::size_t i = 0; i < ready.size(); ++i) {
        if (!ready[i]) msg << ' ' << i;
      }
      msg << ")";
      throw std::runtime_error(msg.str());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

std::vector<std::uint16_t> ShardProcessSupervisor::ports() const {
  std::vector<std::uint16_t> out;
  out.reserve(readiness_.size());
  for (const auto& r : readiness_) out.push_back(r.port);
  return out;
}

void ShardProcessSupervisor::kill_shard(std::size_t i) {
  Child& child = children_.at(i);
  if (child.pid <= 0 || child.exited) return;
  obs::registry().counter("mfpa_supervisor_kills_total", {}).inc();
  ::kill(child.pid, SIGKILL);
  int raw = 0;
  if (::waitpid(child.pid, &raw, 0) == child.pid) reap(child, raw);
}

void ShardProcessSupervisor::terminate_all(std::chrono::milliseconds grace) {
  poll_exits();
  for (auto& child : children_) {
    if (child.pid > 0 && !child.exited) ::kill(child.pid, SIGTERM);
  }
  const auto deadline = std::chrono::steady_clock::now() + grace;
  for (auto& child : children_) {
    if (child.pid <= 0 || child.exited) continue;
    for (;;) {
      int raw = 0;
      const pid_t rc = ::waitpid(child.pid, &raw, WNOHANG);
      if (rc == child.pid) {
        reap(child, raw);
        break;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        // A shard stuck past the grace window would hang the harness;
        // escalate so the caller at least gets a 137 to report.
        ::kill(child.pid, SIGKILL);
        if (::waitpid(child.pid, &raw, 0) == child.pid) reap(child, raw);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

}  // namespace mfpa::net
