#include "wire_client.h"

#include <arpa/inet.h>
#include <cerrno>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <ctime>

namespace perfbench {

namespace net = rockhopper::net;

WireConn::~WireConn() { Close(); }

bool WireConn::Connect(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  return ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) == 0;
}

void WireConn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void WireConn::Queue(net::Verb verb, uint32_t tenant, uint32_t seq,
                     std::string_view payload) {
  if (sent_ == out_.size()) {
    out_.clear();
    sent_ = 0;
  }
  net::AppendFrame(&out_, verb, tenant, seq, payload);
}

bool WireConn::FlushWrites() {
  while (sent_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + sent_, out_.size() - sent_,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent_ += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
  return true;
}

bool WireConn::ReadResponses(std::vector<Response>* out) {
  out->clear();
  for (;;) {
    const ssize_t n = ::recv(fd_, read_buf_.data(), read_buf_.size(), 0);
    if (n > 0) {
      decoder_.Feed(read_buf_.data(), static_cast<size_t>(n));
      if (static_cast<size_t>(n) < read_buf_.size()) break;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;  // orderly close or hard error
  }
  net::Frame frame;
  for (;;) {
    const net::DecodeResult result = decoder_.Next(&frame);
    if (result == net::DecodeResult::kNeedMore) return true;
    if (result != net::DecodeResult::kFrame || !frame.header.is_response()) {
      return false;
    }
    Response response;
    response.status = static_cast<net::WireStatus>(frame.header.verb);
    response.seq = frame.header.seq;
    response.payload.assign(frame.payload_view());
    out->push_back(std::move(response));
  }
}

bool WaitReady(const std::vector<WireConn*>& conns, uint64_t timeout_ns) {
  pollfd fds[8];
  const size_t n = conns.size() < 8 ? conns.size() : 8;
  for (size_t i = 0; i < n; ++i) {
    fds[i].fd = conns[i]->fd();
    fds[i].events = static_cast<short>(
        POLLIN | (conns[i]->want_write() ? POLLOUT : 0));
    fds[i].revents = 0;
  }
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout_ns / 1000000000ull);
  ts.tv_nsec = static_cast<long>(timeout_ns % 1000000000ull);
  const int rc = ::ppoll(fds, n, &ts, nullptr);
  return rc >= 0 || errno == EINTR;
}

}  // namespace perfbench
