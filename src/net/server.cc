#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/logging.h"

namespace rockhopper::net {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;
};

/// Level-triggered epoll readiness, one instance per event-loop thread.
class EpollPoller {
 public:
  static std::unique_ptr<EpollPoller> Create() {
    const int fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (fd < 0) return nullptr;
    return std::unique_ptr<EpollPoller>(new EpollPoller(fd));
  }
  ~EpollPoller() { ::close(epfd_); }
  EpollPoller(const EpollPoller&) = delete;
  EpollPoller& operator=(const EpollPoller&) = delete;

  bool Add(int fd, bool want_write) {
    return Ctl(EPOLL_CTL_ADD, fd, want_write);
  }
  bool Update(int fd, bool want_write) {
    return Ctl(EPOLL_CTL_MOD, fd, want_write);
  }
  void Remove(int fd) {
    struct epoll_event ev = {};
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, &ev);
  }

  void Wait(int timeout_ms, std::vector<PollEvent>* events) {
    struct epoll_event raw[64];
    const int n = ::epoll_wait(epfd_, raw, 64, timeout_ms);
    for (int i = 0; i < n; ++i) {
      PollEvent event;
      event.fd = raw[i].data.fd;
      event.readable = (raw[i].events & (EPOLLIN | EPOLLHUP)) != 0;
      event.writable = (raw[i].events & EPOLLOUT) != 0;
      event.error = (raw[i].events & EPOLLERR) != 0;
      events->push_back(event);
    }
  }

 private:
  explicit EpollPoller(int fd) : epfd_(fd) {}
  bool Ctl(int op, int fd, bool want_write) {
    struct epoll_event ev = {};
    ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0);
    ev.data.fd = fd;
    return ::epoll_ctl(epfd_, op, fd, &ev) == 0;
  }
  int epfd_;
};

struct Connection {
  explicit Connection(ServerCore* core) : session(core) {}
  int fd = -1;
  Session session;
  std::string outbuf;
  size_t out_pos = 0;
  /// Close as soon as the write buffer drains (fatal framing error or
  /// shutdown drain).
  bool closing = false;
};

}  // namespace

struct Server::IoThread {
  Server* server = nullptr;
  std::unique_ptr<EpollPoller> poller;
  std::unordered_map<int, std::unique_ptr<Connection>> connections;
  /// Self-pipe wakeup: other threads hand fds over / request stop.
  int wake_read = -1;
  int wake_write = -1;
  std::mutex mu;
  std::vector<int> incoming;
  std::thread thread;
  bool owns_listener = false;
};

Server::Server(ServerCore* core, const ServerOptions& options)
    : core_(core), options_(options) {}

Server::~Server() {
  if (running_.load(std::memory_order_acquire)) Stop();
}

Status Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError("socket: " + std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen host: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 256) != 0 || !SetNonBlocking(listen_fd_)) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("bind/listen " + options_.host + ":" +
                           std::to_string(options_.port) + ": " + reason);
  }
  struct sockaddr_in bound = {};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound),
                &bound_len);
  port_ = ntohs(bound.sin_port);

  const int threads = options_.io_threads < 1 ? 1 : options_.io_threads;
  for (int i = 0; i < threads; ++i) {
    auto io = std::make_unique<IoThread>();
    io->server = this;
    io->poller = EpollPoller::Create();
    if (io->poller == nullptr) {
      const std::string reason = std::strerror(errno);
      ::close(listen_fd_);
      listen_fd_ = -1;
      threads_.clear();
      return Status::IOError("epoll_create1: " + reason);
    }
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      threads_.clear();
      return Status::IOError("pipe: " + std::string(std::strerror(errno)));
    }
    io->wake_read = pipe_fds[0];
    io->wake_write = pipe_fds[1];
    SetNonBlocking(io->wake_read);
    SetNonBlocking(io->wake_write);
    io->poller->Add(io->wake_read, false);
    if (i == 0) {
      io->owns_listener = true;
      io->poller->Add(listen_fd_, false);
    }
    threads_.push_back(std::move(io));
  }
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (auto& io : threads_) {
    IoThread* raw = io.get();
    io->thread = std::thread([this, raw] { IoLoop(raw); });
  }
  return Status::OK();
}

void Server::Stop(int drain_ms) {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  drain_ms_.store(drain_ms, std::memory_order_release);
  core_->BeginShutdown();
  stop_requested_.store(true, std::memory_order_release);
  for (auto& io : threads_) {
    const char byte = 1;
    (void)!::write(io->wake_write, &byte, 1);
  }
  for (auto& io : threads_) {
    if (io->thread.joinable()) io->thread.join();
    ::close(io->wake_read);
    ::close(io->wake_write);
  }
  threads_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::IoLoop(IoThread* io) {
  core::ServiceMetrics& metrics = core_->metrics();
  std::vector<char> chunk(options_.read_chunk);
  std::vector<PollEvent> events;
  uint64_t drain_deadline_ns = 0;
  bool draining = false;

  auto close_connection = [&](int fd) {
    auto it = io->connections.find(fd);
    if (it == io->connections.end()) return;
    // Observes staged for batching already passed admission — run them
    // through the service even though the peer is gone (the responses are
    // discarded with the socket).
    it->second->session.Flush(&it->second->outbuf);
    io->poller->Remove(fd);
    ::close(fd);
    io->connections.erase(it);
    metrics.net_connections->Add(-1.0);
  };

  // Flushes as much of the write buffer as the socket accepts; false on a
  // dead peer. Rearms EPOLLOUT interest only while a backlog remains.
  auto try_write = [&](Connection* c) -> bool {
    while (c->out_pos < c->outbuf.size()) {
      const ssize_t n =
          ::send(c->fd, c->outbuf.data() + c->out_pos,
                 c->outbuf.size() - c->out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        c->out_pos += static_cast<size_t>(n);
        metrics.net_tx_bytes->Increment(static_cast<uint64_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;
    }
    if (c->out_pos == c->outbuf.size()) {
      c->outbuf.clear();
      c->out_pos = 0;
      io->poller->Update(c->fd, false);
    } else {
      io->poller->Update(c->fd, true);
    }
    return true;
  };

  while (true) {
    // Adopt connections handed over by the accepting thread.
    {
      std::lock_guard<std::mutex> lock(io->mu);
      for (const int fd : io->incoming) {
        auto conn = std::make_unique<Connection>(core_);
        conn->fd = fd;
        io->poller->Add(fd, false);
        io->connections.emplace(fd, std::move(conn));
      }
      io->incoming.clear();
    }

    events.clear();
    io->poller->Wait(draining ? 10 : 100, &events);
    const uint64_t now_ns = NowNs();

    for (const PollEvent& event : events) {
      if (event.fd == io->wake_read) {
        char buffer[64];
        while (::read(io->wake_read, buffer, sizeof(buffer)) > 0) {
        }
        continue;
      }
      if (io->owns_listener && event.fd == listen_fd_) {
        if (draining) continue;
        for (;;) {
          const int fd = ::accept(listen_fd_, nullptr, nullptr);
          if (fd < 0) break;
          SetNonBlocking(fd);
          SetNoDelay(fd);
          metrics.net_connections_accepted->Increment();
          metrics.net_connections->Add(1.0);
          const size_t target =
              next_thread_.fetch_add(1, std::memory_order_relaxed) %
              threads_.size();
          IoThread* owner = threads_[target].get();
          if (owner == io) {
            auto conn = std::make_unique<Connection>(core_);
            conn->fd = fd;
            io->poller->Add(fd, false);
            io->connections.emplace(fd, std::move(conn));
          } else {
            {
              std::lock_guard<std::mutex> lock(owner->mu);
              owner->incoming.push_back(fd);
            }
            const char byte = 1;
            (void)!::write(owner->wake_write, &byte, 1);
          }
        }
        continue;
      }

      auto it = io->connections.find(event.fd);
      if (it == io->connections.end()) continue;
      Connection* conn = it->second.get();
      if (event.error) {
        close_connection(event.fd);
        continue;
      }
      bool dead = false;
      if (event.readable) {
        // Bounded work per readable event: a firehose sender must not pin
        // the loop in this read cycle — the level-triggered poller will
        // re-signal, and between cycles other connections get served,
        // responses get written, and the admission controller gets to see
        // the backlog it is supposed to shed.
        for (int reads = 0; reads < 4; ++reads) {
          const ssize_t n = ::recv(conn->fd, chunk.data(), chunk.size(), 0);
          if (n > 0) {
            if (!conn->session.OnBytes(chunk.data(),
                                       static_cast<size_t>(n), now_ns,
                                       &conn->outbuf)) {
              conn->closing = true;  // flush the kBadFrame response first
              break;
            }
            if (static_cast<size_t>(n) < chunk.size()) break;
            continue;
          }
          if (n == 0) {
            dead = true;  // peer closed
            break;
          }
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          dead = true;
          break;
        }
      }
      if (!dead && !try_write(conn)) dead = true;
      if (dead || (conn->closing && conn->outbuf.empty())) {
        close_connection(event.fd);
      }
    }

    core_->MaybeUpdateAdmission(now_ns, QueueDepthLocal(io));

    if (!draining && stop_requested()) {
      draining = true;
      drain_deadline_ns =
          now_ns + static_cast<uint64_t>(
                       drain_ms_.load(std::memory_order_acquire)) *
                       1000000ull;
      if (io->owns_listener) io->poller->Remove(listen_fd_);
      // Flush staged batches and mark every connection for close-on-drain.
      for (auto& [fd, conn] : io->connections) {
        conn->session.Flush(&conn->outbuf);
        conn->closing = true;
        if (!try_write(conn.get()) ||
            (conn->closing && conn->outbuf.empty())) {
          // Closed below by sweep.
        }
      }
    }
    if (draining) {
      std::vector<int> done;
      for (auto& [fd, conn] : io->connections) {
        if (conn->outbuf.empty() || NowNs() > drain_deadline_ns) {
          done.push_back(fd);
        }
      }
      for (const int fd : done) close_connection(fd);
      if (io->connections.empty()) break;
    }
  }
}

size_t Server::QueueDepthLocal(IoThread* io) const {
  // Backpressure proxy, in approximate frames (~64 bytes each): staged
  // observes, the unwritten-response backlog, and — the part that actually
  // grows under open-loop overload — the bytes queued in each socket's
  // kernel receive buffer, which is where requests wait when the service
  // can't keep up. With one event-loop thread (the default) this is the
  // whole server's backlog.
  size_t depth = 0;
  for (const auto& [fd, conn] : io->connections) {
    depth += conn->session.pending();
    depth += (conn->outbuf.size() - conn->out_pos) / 64;
    int unread = 0;
    if (::ioctl(fd, FIONREAD, &unread) == 0 && unread > 0) {
      depth += static_cast<size_t>(unread) / 64;
    }
  }
  return depth;
}

}  // namespace rockhopper::net
