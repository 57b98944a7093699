#include "net/client.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace mfpa::net {
namespace {

/// Send-buffer bytes: encoded frames go to the socket once this many wait.
constexpr std::size_t kSendBufferBytes = 256 * 1024;

/// connect(2) with EINTR handling: an interrupted connect keeps completing
/// in the background, so retrying the call races against it — instead poll
/// for writability and read the outcome from SO_ERROR.
int connect_retry(int fd, const sockaddr* addr, socklen_t len) {
  if (::connect(fd, addr, len) == 0) return 0;
  if (errno != EINTR) return -1;
  for (;;) {
    pollfd pfd{fd, POLLOUT, 0};
    const int rc = ::poll(&pfd, 1, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0) return -1;
    if (err != 0) {
      errno = err;
      return -1;
    }
    return 0;
  }
}

}  // namespace

TelemetryClient::TelemetryClient(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("TelemetryClient: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect_retry(fd_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("TelemetryClient: cannot connect 127.0.0.1:" +
                             std::to_string(port) + ": " + why);
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

TelemetryClient::~TelemetryClient() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void TelemetryClient::send_all(const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t sent = ::send(fd_, data, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("TelemetryClient: send failed: ") +
                               std::strerror(errno));
    }
    data += sent;
    n -= static_cast<std::size_t>(sent);
  }
}

void TelemetryClient::send_record(std::uint64_t drive_id, int vendor,
                                  const sim::DailyRecord& record) {
  if (fd_ < 0) throw std::runtime_error("TelemetryClient: closed");
  append_record_frame(send_buf_, next_seq_++, drive_id, vendor, record);
  ++records_sent_;
  if (send_buf_.size() >= kSendBufferBytes) flush_buffer();
}

void TelemetryClient::flush_buffer() {
  if (send_buf_.empty()) return;
  send_all(send_buf_.data(), send_buf_.size());
  send_buf_.clear();
}

NetMessage TelemetryClient::await_reply(MessageType want, const char* what) {
  NetMessage msg;
  char chunk[4096];
  for (;;) {
    switch (decoder_.next(msg)) {
      case FrameDecoder::Status::kMessage:
        if (msg.type != want) {
          throw std::runtime_error(
              "TelemetryClient: unexpected reply message");
        }
        return msg;
      case FrameDecoder::Status::kError:
        throw std::runtime_error(
            std::string("TelemetryClient: corrupt reply: ") +
            error_name(decoder_.error()));
      case FrameDecoder::Status::kNeedMore:
        break;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      throw std::runtime_error(std::string("TelemetryClient: connection "
                                           "closed awaiting ") +
                               what);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("TelemetryClient: recv failed: ") +
                               std::strerror(errno));
    }
    decoder_.feed(chunk, static_cast<std::size_t>(n));
  }
}

Hello TelemetryClient::handshake(const Hello& claim) {
  if (fd_ < 0) throw std::runtime_error("TelemetryClient: closed");
  append_hello_frame(send_buf_, next_seq_++, MessageType::kHello, claim);
  flush_buffer();
  const NetMessage msg = await_reply(MessageType::kHelloAck, "hello ack");
  if (const char* why = claim.mismatch(msg.hello)) {
    throw std::runtime_error(
        std::string("TelemetryClient: handshake rejected (") + why +
        "): server is shard " + std::to_string(msg.hello.shard_index) + "/" +
        std::to_string(msg.hello.shard_count) + " model v" +
        std::to_string(msg.hello.model_version) + ", client expected shard " +
        std::to_string(claim.shard_index) + "/" +
        std::to_string(claim.shard_count) + " model v" +
        std::to_string(claim.model_version));
  }
  return msg.hello;
}

FlushAck TelemetryClient::sync() {
  if (fd_ < 0) throw std::runtime_error("TelemetryClient: closed");
  append_control_frame(send_buf_, next_seq_++, MessageType::kFlush);
  flush_buffer();
  return await_reply(MessageType::kFlushAck, "flush ack").ack;
}

void TelemetryClient::close() {
  if (fd_ < 0) return;
  append_control_frame(send_buf_, next_seq_++, MessageType::kGoodbye);
  flush_buffer();
  ::close(fd_);
  fd_ = -1;
}

}  // namespace mfpa::net
