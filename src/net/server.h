#ifndef ROCKHOPPER_NET_SERVER_H_
#define ROCKHOPPER_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/server_core.h"

namespace rockhopper::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the actual one back via port().
  uint16_t port = 0;
  /// Event-loop threads. One is right for one core; connections are
  /// assigned round-robin when more are configured.
  int io_threads = 1;
  /// Per-read buffer chunk.
  size_t read_chunk = 64 * 1024;
};

/// The network front end: a hand-rolled, dependency-free, non-blocking
/// socket server. Listener + connections live on level-triggered epoll
/// event loops (Linux only); each connection owns a Session
/// (the protocol state machine in server_core.h), a read chunk, and a
/// pending write buffer. TCP_NODELAY is set so small response frames are
/// not Nagle-delayed under closed-loop clients.
///
/// Stop() is a drain, not an abort: accepting stops, sessions answer
/// kShuttingDown to new requests, staged observe batches flush through the
/// service, and buffered responses are written out (bounded by drain_ms)
/// before sockets close — so an exit-report scrape taken after Stop()
/// returns counts every admitted request exactly.
class Server {
 public:
  Server(ServerCore* core, const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the event-loop threads. kIOError when a
  /// socket, epoll instance or wakeup pipe cannot be created.
  Status Start();

  /// The bound port (after Start); useful with options.port = 0.
  uint16_t port() const { return port_; }

  /// Graceful drain-then-close; idempotent. Safe from any thread (including
  /// a signal-driven requester via RequestStop + a later Stop call).
  void Stop(int drain_ms = 2000);

  /// Async-signal-safe stop request: the event loops notice and Stop()
  /// completes the shutdown on the caller's thread.
  void RequestStop() { stop_requested_.store(true, std::memory_order_release); }
  bool stop_requested() const {
    return stop_requested_.load(std::memory_order_acquire);
  }

 private:
  struct IoThread;

  void IoLoop(IoThread* io);
  /// Backpressure proxy for the admission controller: staged observes plus
  /// the unwritten-response backlog (in frames) across this thread's
  /// connections.
  size_t QueueDepthLocal(IoThread* io) const;

  ServerCore* core_;
  ServerOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<IoThread>> threads_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};
  std::atomic<int> drain_ms_{2000};
  std::atomic<size_t> next_thread_{0};
};

}  // namespace rockhopper::net

#endif  // ROCKHOPPER_NET_SERVER_H_
