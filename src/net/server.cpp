#include "net/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace mfpa::net {
namespace {

constexpr int kListenBacklog = 16;
/// Bytes read from a connection per recv().
constexpr std::size_t kReadChunk = 64 * 1024;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

void count_handshake(const char* result) {
  obs::registry()
      .counter("mfpa_net_handshakes_total", {{"result", result}})
      .inc();
}

}  // namespace

Hello RouterSink::identity() const {
  Hello id;
  // A single-shard slice asserts its global shard index; a router fronting
  // several shards answers for "any shard" of the topology.
  id.shard_index = router_->shard_count() == 1
                       ? static_cast<std::uint32_t>(router_->first_shard())
                       : kAnyShard;
  id.shard_count = static_cast<std::uint32_t>(router_->topology_shards());
  id.model_version = model_version_;
  return id;
}

struct IngestServer::Connection {
  int fd = -1;
  FrameDecoder decoder;
  std::string write_buf;
  std::size_t write_off = 0;
  bool hello_done = false;
  /// Close once write_buf drains — set when a kHelloAck must still reach a
  /// rejected client before the server hangs up.
  bool close_after_flush = false;

  bool write_pending() const noexcept { return write_off < write_buf.size(); }
};

IngestServer::IngestServer(ServerSink& sink, ServerConfig config)
    : sink_(&sink), config_(config) {
  start();
}

IngestServer::IngestServer(ShardRouter& router, ServerConfig config)
    : owned_sink_(std::make_unique<RouterSink>(router)), config_(config) {
  sink_ = owned_sink_.get();
  start();
}

void IngestServer::start() {
  auto& reg = obs::registry();
  metrics_.connections = &reg.counter("mfpa_net_connections_total");
  metrics_.active = &reg.gauge("mfpa_net_connections_active");
  metrics_.bytes_received = &reg.counter("mfpa_net_bytes_received_total");
  metrics_.records = &reg.counter("mfpa_net_records_total");
  metrics_.flushes = &reg.counter("mfpa_net_flushes_total");
  metrics_.misrouted = &reg.counter("mfpa_net_misrouted_records_total");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("IngestServer: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, kListenBacklog) != 0) {
    const std::string why = std::strerror(errno);
    close_fd(listen_fd_);
    throw std::runtime_error("IngestServer: cannot bind 127.0.0.1:" +
                             std::to_string(config_.port) + ": " + why);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  set_nonblocking(listen_fd_);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    close_fd(listen_fd_);
    throw std::runtime_error("IngestServer: pipe() failed");
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  set_nonblocking(wake_read_fd_);
  set_nonblocking(wake_write_fd_);

  io_thread_ = std::thread([this] { io_loop(); });
}

IngestServer::~IngestServer() {
  stop();
  close_fd(listen_fd_);
  close_fd(wake_read_fd_);
  close_fd(wake_write_fd_);
}

void IngestServer::request_stop() noexcept {
  stop_requested_.store(true, std::memory_order_release);
  // Async-signal-safe wakeup; the pipe is non-blocking and one byte is
  // enough — a full pipe already guarantees a pending wakeup.
  const char byte = 0;
  [[maybe_unused]] const auto rc = ::write(wake_write_fd_, &byte, 1);
}

void IngestServer::stop() {
  request_stop();
  if (io_thread_.joinable()) io_thread_.join();
}

void IngestServer::count_protocol_error(DecodeError error) {
  obs::registry()
      .counter("mfpa_net_protocol_errors_total",
               {{"kind", error_name(error)}})
      .inc();
}

bool IngestServer::handle_hello(Connection& conn, const NetMessage& msg) {
  // Always answer with this server's identity, even on rejection — the
  // ack is what lets the client print exactly which field disagreed. The
  // rejected connection closes only after the ack drains.
  append_hello_frame(conn.write_buf, msg.seq, MessageType::kHelloAck,
                     sink_->identity());
  const char* why = msg.hello.mismatch(sink_->identity());
  if (why != nullptr) {
    count_handshake(why);
    conn.close_after_flush = true;
    return false;
  }
  count_handshake("ok");
  conn.hello_done = true;
  return true;
}

bool IngestServer::drain_connection(Connection& conn) {
  NetMessage msg;
  for (;;) {
    const FrameDecoder::Status status = conn.decoder.next(msg);
    if (status == FrameDecoder::Status::kNeedMore) return true;
    if (status == FrameDecoder::Status::kError) {
      count_protocol_error(conn.decoder.error());
      return false;
    }
    if (config_.require_hello && !conn.hello_done &&
        msg.type != MessageType::kHello &&
        msg.type != MessageType::kGoodbye) {
      // A shard process never applies traffic from a client that did not
      // introduce itself — a legacy or misdirected feed must fail before
      // it can touch this shard's durable state.
      count_handshake("missing");
      return false;
    }
    switch (msg.type) {
      case MessageType::kHello:
        if (!handle_hello(conn, msg)) return false;
        break;
      case MessageType::kRecord: {
        if (!sink_->owns(msg.drive_id)) {
          // Digest-valid frame for a drive outside this slice: the client's
          // topology map is wrong. Refuse before any state is touched.
          metrics_.misrouted->inc();
          return false;
        }
        serve::TelemetryUpdate update;
        update.drive_id = msg.drive_id;
        update.vendor = msg.vendor;
        update.record = msg.record;
        // Blocks when the owning shard's queue is full — the I/O thread
        // pausing here is exactly what closes the sender's TCP window.
        sink_->submit(update);
        metrics_.records->inc();
        break;
      }
      case MessageType::kFlush:
        append_flush_ack_frame(conn.write_buf, msg.seq, sink_->flush_totals());
        metrics_.flushes->inc();
        break;
      case MessageType::kGoodbye:
        return false;  // orderly close, no error accounting
      case MessageType::kFlushAck:
      case MessageType::kHelloAck:
        // Client-only messages; a server receiving one is protocol misuse.
        count_protocol_error(DecodeError::kBadMessage);
        return false;
    }
  }
}

void IngestServer::io_loop() {
  std::vector<std::unique_ptr<Connection>> conns;
  std::vector<char> chunk(kReadChunk);
  std::vector<pollfd> fds;

  auto close_conn = [&](std::size_t i) {
    close_fd(conns[i]->fd);
    metrics_.active->add(-1.0);
    conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
  };

  // Sends as much of conn.write_buf as the socket accepts, retrying EINTR.
  // Returns false on a hard send error.
  auto pump_writes = [](Connection& conn) {
    while (conn.write_pending()) {
      const ssize_t n =
          ::send(conn.fd, conn.write_buf.data() + conn.write_off,
                 conn.write_buf.size() - conn.write_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return errno == EAGAIN || errno == EWOULDBLOCK;
      }
      conn.write_off += static_cast<std::size_t>(n);
    }
    conn.write_buf.clear();
    conn.write_off = 0;
    return true;
  };

  while (!stop_requested_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back({wake_read_fd_, POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& conn : conns) {
      // A draining-close connection only waits for its ack to flush; new
      // input from the rejected client is ignored.
      short events = conn->close_after_flush ? 0 : POLLIN;
      if (conn->write_pending()) events |= POLLOUT;
      fds.push_back({conn->fd, events, 0});
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }

    if (fds[0].revents & POLLIN) {
      for (;;) {
        char buf[64];
        const ssize_t n = ::read(wake_read_fd_, buf, sizeof(buf));
        if (n > 0) continue;
        if (n < 0 && errno == EINTR) continue;
        break;
      }
    }
    if (stop_requested_.load(std::memory_order_acquire)) break;

    // Connections accepted below are appended after `polled`, so the
    // fds[2 + i] pairing with this poll round stays valid.
    const std::size_t polled = conns.size();
    if (fds[1].revents & POLLIN) {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
          if (errno == EINTR) continue;
          break;
        }
        set_nonblocking(fd);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        conns.push_back(std::move(conn));
        metrics_.connections->inc();
        metrics_.active->add(1.0);
      }
    }

    // Iterate backwards so close_conn's erase leaves earlier indices valid.
    for (std::size_t i = polled; i-- > 0;) {
      Connection& conn = *conns[i];
      const pollfd& pfd = fds[2 + i];
      bool alive = true;

      if (pfd.revents & (POLLOUT | POLLHUP | POLLERR)) {
        alive = pump_writes(conn);
      }

      if (alive && !conn.close_after_flush &&
          (pfd.revents & (POLLIN | POLLHUP | POLLERR))) {
        for (;;) {
          const ssize_t n = ::read(conn.fd, chunk.data(), chunk.size());
          if (n > 0) {
            metrics_.bytes_received->inc(static_cast<std::uint64_t>(n));
            conn.decoder.feed(chunk.data(), static_cast<std::size_t>(n));
            if (!drain_connection(conn)) {
              alive = false;
              break;
            }
            continue;
          }
          if (n < 0 && errno == EINTR) continue;
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          alive = false;  // EOF or hard error
          break;
        }
      }

      if ((alive || conn.close_after_flush) && conn.write_pending()) {
        // Opportunistic write so single-poll request/response (flush → ack,
        // hello → ack) doesn't need a second poll round trip — and so a
        // rejection ack reaches the client before the close below.
        if (!pump_writes(conn)) alive = false;
      }
      if (conn.close_after_flush && !conn.write_pending()) alive = false;

      if (!alive && !(conn.close_after_flush && conn.write_pending())) {
        close_conn(i);
      }
    }
  }

  // Graceful drain: no new bytes are read, but frames already buffered in
  // each decoder are finished before the connections close.
  for (std::size_t i = conns.size(); i-- > 0;) {
    drain_connection(*conns[i]);
    close_conn(i);
  }
  close_fd(listen_fd_);
}

}  // namespace mfpa::net
