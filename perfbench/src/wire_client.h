#ifndef PERFBENCH_WIRE_CLIENT_H_
#define PERFBENCH_WIRE_CLIENT_H_

// The benchmark's own wire client: one non-blocking loopback connection
// speaking the rockhopper wire codec (net/wire.h), driven by the caller's
// poll loop so one thread can keep several connections busy — closed loop
// (one outstanding request per connection) or open loop (sends on a
// schedule while responses are read as they land). Timing is the caller's:
// it stamps each request and reads the arrival time of each response, so
// latencies are exact per request, not bucketed.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/wire.h"

namespace perfbench {

class WireConn {
 public:
  WireConn() = default;
  ~WireConn();
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  /// Connects to 127.0.0.1:`port`, then switches the socket to
  /// non-blocking with TCP_NODELAY. False on failure.
  bool Connect(uint16_t port);
  void Close();
  int fd() const { return fd_; }

  /// Appends one request frame to the send buffer.
  void Queue(rockhopper::net::Verb verb, uint32_t tenant, uint32_t seq,
             std::string_view payload);
  /// Writes as much of the send buffer as the socket accepts. False on a
  /// transport error.
  bool FlushWrites();
  bool want_write() const { return sent_ < out_.size(); }

  /// One decoded response.
  struct Response {
    rockhopper::net::WireStatus status = rockhopper::net::WireStatus::kOk;
    uint32_t seq = 0;
    std::string payload;
  };
  /// Reads what the socket has and appends every complete response to
  /// `out` (cleared first). False when the server closed the connection or
  /// the response stream is not valid framing.
  bool ReadResponses(std::vector<Response>* out);

 private:
  int fd_ = -1;
  std::string out_;
  size_t sent_ = 0;
  std::vector<char> read_buf_ = std::vector<char>(64 * 1024);
  rockhopper::net::FrameDecoder decoder_;
};

/// Waits until one of `conns` is readable (or writable when it has queued
/// bytes) or `timeout_ns` elapses (0 = just check). Returns false on a poll
/// error.
bool WaitReady(const std::vector<WireConn*>& conns, uint64_t timeout_ns);

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_CLIENT_H_
