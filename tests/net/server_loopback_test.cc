#include "net/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/journal.h"
#include "core/tuning_service.h"
#include "net/client.h"
#include "net/server_core.h"
#include "net/wire.h"
#include "sparksim/workloads.h"
#include "support/test_temp_dir.h"

namespace rockhopper::net {
namespace {

// Transport-free Session tests: the same state machine the socket server
// runs, fed directly. These are the fuzz-style framing checks — a hostile
// or broken peer must get typed error responses and must never corrupt the
// session into misparsing a later well-formed frame.
class SessionTest : public ::testing::Test {
 protected:
  SessionTest()
      : space_(sparksim::QueryLevelSpace()),
        plan_(sparksim::TpchPlan(1)),
        service_(space_, nullptr, core::TuningServiceOptions(), 1) {
    registry_.Register(&plan_);
  }

  std::string ObserveFrame(uint32_t seq, uint64_t event_id = 1) {
    core::QueryEndEvent event;
    event.event_id = event_id;
    event.config = space_.Defaults();
    event.data_size = 1e9;
    event.runtime = 10.0;
    return EncodeRequest(Verb::kObserveQueryEnd, 1, seq,
                         EncodeObservePayload(plan_.Signature(), event));
  }

  // Drains `out` into (status, seq) pairs, failing on framing errors.
  std::vector<std::pair<WireStatus, uint32_t>> Responses(
      const std::string& out) {
    std::vector<std::pair<WireStatus, uint32_t>> result;
    FrameDecoder decoder;
    decoder.Feed(out.data(), out.size());
    Frame frame;
    while (true) {
      const DecodeResult r = decoder.Next(&frame);
      if (r == DecodeResult::kNeedMore) break;
      EXPECT_EQ(r, DecodeResult::kFrame);
      EXPECT_TRUE(frame.header.is_response());
      result.emplace_back(static_cast<WireStatus>(frame.header.verb),
                          frame.header.seq);
    }
    return result;
  }

  sparksim::ConfigSpace space_;
  sparksim::QueryPlan plan_;
  core::TuningService service_;
  PlanRegistry registry_;
};

TEST_F(SessionTest, ObserveBatchesAndAcksEveryRequest) {
  ServerCore core(&service_, &registry_, ServerCoreOptions());
  Session session(&core);
  std::string in;
  for (uint32_t seq = 1; seq <= 5; ++seq) {
    in += ObserveFrame(seq, seq);
  }
  std::string out;
  ASSERT_TRUE(session.OnBytes(in.data(), in.size(), 1, &out));
  const auto responses = Responses(out);
  ASSERT_EQ(responses.size(), 5u);
  for (uint32_t seq = 1; seq <= 5; ++seq) {
    EXPECT_EQ(responses[seq - 1].first, WireStatus::kOk);
    EXPECT_EQ(responses[seq - 1].second, seq);
  }
  EXPECT_EQ(service_.observations().Count(plan_.Signature()), 5u);
  EXPECT_EQ(session.pending(), 0u);  // OnBytes flushes at the end
}

TEST_F(SessionTest, EverySplitPointOfAValidFrameYieldsOneAck) {
  for (size_t cut = 1; cut < kHeaderSize + 20; ++cut) {
    ServerCore core(&service_, &registry_, ServerCoreOptions());
    Session session(&core);
    const std::string frame = ObserveFrame(7, 100 + cut);
    ASSERT_GT(frame.size(), cut);
    std::string out;
    ASSERT_TRUE(session.OnBytes(frame.data(), cut, 1, &out));
    EXPECT_TRUE(out.empty()) << "cut=" << cut;  // nothing to ack yet
    ASSERT_TRUE(
        session.OnBytes(frame.data() + cut, frame.size() - cut, 1, &out));
    const auto responses = Responses(out);
    ASSERT_EQ(responses.size(), 1u) << "cut=" << cut;
    EXPECT_EQ(responses[0].first, WireStatus::kOk);
    EXPECT_EQ(responses[0].second, 7u);
  }
}

TEST_F(SessionTest, CrcCorruptionGetsTypedErrorAndSessionSurvives) {
  ServerCore core(&service_, &registry_, ServerCoreOptions());
  Session session(&core);
  std::string corrupted = ObserveFrame(1, 200);
  corrupted[kHeaderSize + 3] ^= 0x20;
  std::string out;
  ASSERT_TRUE(session.OnBytes(corrupted.data(), corrupted.size(), 1, &out));
  auto responses = Responses(out);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].first, WireStatus::kBadCrc);
  // The stream stayed aligned: a clean frame on the same session succeeds.
  out.clear();
  const std::string clean = ObserveFrame(2, 201);
  ASSERT_TRUE(session.OnBytes(clean.data(), clean.size(), 1, &out));
  responses = Responses(out);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].first, WireStatus::kOk);
  EXPECT_EQ(responses[0].second, 2u);
}

TEST_F(SessionTest, OversizedLengthPrefixClosesWithBadFrame) {
  ServerCore core(&service_, &registry_, ServerCoreOptions());
  Session session(&core);
  std::string frame = ObserveFrame(1);
  const uint32_t huge = kMaxPayload + 1;
  std::memcpy(&frame[16], &huge, sizeof(huge));
  std::string out;
  EXPECT_FALSE(session.OnBytes(frame.data(), frame.size(), 1, &out));
  const auto responses = Responses(out);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].first, WireStatus::kBadFrame);
}

TEST_F(SessionTest, GarbageBytesCloseWithBadFrame) {
  ServerCore core(&service_, &registry_, ServerCoreOptions());
  Session session(&core);
  const std::string garbage = "GET / HTTP/1.1\r\nHost: localhost\r\n\r\n";
  std::string out;
  EXPECT_FALSE(session.OnBytes(garbage.data(), garbage.size(), 1, &out));
  const auto responses = Responses(out);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].first, WireStatus::kBadFrame);
}

TEST_F(SessionTest, StagedObservesStillAckBeforeFatalClose) {
  // Admitted work ahead of a fatal framing error is not lost: the staged
  // batch flushes (kOk acks first), then the kBadFrame response closes.
  ServerCore core(&service_, &registry_, ServerCoreOptions());
  Session session(&core);
  std::string in = ObserveFrame(1, 300);
  in += "garbage that is definitely not a frame header...";
  std::string out;
  EXPECT_FALSE(session.OnBytes(in.data(), in.size(), 1, &out));
  const auto responses = Responses(out);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].first, WireStatus::kOk);
  EXPECT_EQ(responses[0].second, 1u);
  EXPECT_EQ(responses[1].first, WireStatus::kBadFrame);
  EXPECT_EQ(service_.observations().Count(plan_.Signature()), 1u);
}

TEST_F(SessionTest, UndecodablePayloadGetsBadPayload) {
  ServerCore core(&service_, &registry_, ServerCoreOptions());
  Session session(&core);
  const std::string frame =
      EncodeRequest(Verb::kObserveQueryEnd, 1, 5, "short");
  std::string out;
  ASSERT_TRUE(session.OnBytes(frame.data(), frame.size(), 1, &out));
  const auto responses = Responses(out);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].first, WireStatus::kBadPayload);
}

TEST_F(SessionTest, UnknownSignatureIsTyped) {
  ServerCore core(&service_, &registry_, ServerCoreOptions());
  Session session(&core);
  core::QueryEndEvent event;
  event.config = space_.Defaults();
  event.data_size = 1e9;
  event.runtime = 1.0;
  const std::string frame = EncodeRequest(
      Verb::kObserveQueryEnd, 1, 6, EncodeObservePayload(0xDEAD, event));
  std::string out;
  ASSERT_TRUE(session.OnBytes(frame.data(), frame.size(), 1, &out));
  const auto responses = Responses(out);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].first, WireStatus::kUnknownSignature);
}

TEST_F(SessionTest, UnknownVerbIsTypedAndSurvivable) {
  ServerCore core(&service_, &registry_, ServerCoreOptions());
  Session session(&core);
  const std::string frame =
      EncodeRequest(static_cast<Verb>(99), 1, 7, "");
  std::string out;
  ASSERT_TRUE(session.OnBytes(frame.data(), frame.size(), 1, &out));
  const auto responses = Responses(out);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].first, WireStatus::kUnknownVerb);
}

TEST_F(SessionTest, ResponseFlaggedRequestCloses) {
  ServerCore core(&service_, &registry_, ServerCoreOptions());
  Session session(&core);
  const std::string frame = EncodeResponse(WireStatus::kOk, 1, 8, "");
  std::string out;
  EXPECT_FALSE(session.OnBytes(frame.data(), frame.size(), 1, &out));
}

TEST_F(SessionTest, TenantLimitShedsWithBusy) {
  ServerCoreOptions options;
  options.tenant_limits.default_rate = 1.0;  // 1/s, burst floor 1 token
  ServerCore core(&service_, &registry_, options);
  Session session(&core);
  std::string out;
  const std::string first = ObserveFrame(1, 400);
  ASSERT_TRUE(session.OnBytes(first.data(), first.size(), 1, &out));
  auto responses = Responses(out);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].first, WireStatus::kOk);
  out.clear();
  const std::string second = ObserveFrame(2, 401);
  ASSERT_TRUE(session.OnBytes(second.data(), second.size(), 1, &out));
  responses = Responses(out);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].first, WireStatus::kBusy);
}

TEST_F(SessionTest, ShutdownAnswersShuttingDown) {
  ServerCore core(&service_, &registry_, ServerCoreOptions());
  Session session(&core);
  core.BeginShutdown();
  const std::string frame = ObserveFrame(1, 500);
  std::string out;
  ASSERT_TRUE(session.OnBytes(frame.data(), frame.size(), 1, &out));
  const auto responses = Responses(out);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].first, WireStatus::kShuttingDown);
}

std::string AdminFrame(uint32_t seq, AdminOp op, uint32_t tenant,
                       double value, const std::string& token) {
  AdminRequest request;
  request.op = op;
  request.tenant = tenant;
  request.value = value;
  request.token = token;
  return EncodeRequest(Verb::kAdmin, 0, seq, EncodeAdminPayload(request));
}

// A server started without --admin-token has no control plane: every Admin
// frame is refused, with no default credential to guess.
TEST_F(SessionTest, AdminRefusedWhenNoTokenConfigured) {
  ServerCore core(&service_, &registry_, ServerCoreOptions());
  Session session(&core);
  const std::string frame =
      AdminFrame(1, AdminOp::kSetSharedBudget, 0, 4096.0, "anything");
  std::string out;
  ASSERT_TRUE(session.OnBytes(frame.data(), frame.size(), 1, &out));
  const auto responses = Responses(out);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].first, WireStatus::kUnauthorized);
  EXPECT_EQ(core.shared_budget_bytes(), 0u);
}

TEST_F(SessionTest, AdminTokenGatesRuntimeBudgetAndRateChanges) {
  ServerCoreOptions options;
  options.admin_token = "secret";
  ServerCore core(&service_, &registry_, options);
  Session session(&core);
  std::string out;

  // Wrong token: refused, nothing changes.
  std::string frame =
      AdminFrame(1, AdminOp::kSetSharedBudget, 0, 1048576.0, "wrong");
  ASSERT_TRUE(session.OnBytes(frame.data(), frame.size(), 1, &out));
  auto responses = Responses(out);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].first, WireStatus::kUnauthorized);
  EXPECT_EQ(core.shared_budget_bytes(), 0u);

  // Right token: the shared budget moves, visible to both the admission
  // denominator (ServerCore) and the tuning service's budget split.
  out.clear();
  frame = AdminFrame(2, AdminOp::kSetSharedBudget, 0, 1048576.0, "secret");
  ASSERT_TRUE(session.OnBytes(frame.data(), frame.size(), 1, &out));
  responses = Responses(out);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].first, WireStatus::kOk);
  EXPECT_EQ(core.shared_budget_bytes(), 1048576u);
  EXPECT_EQ(service_.shared_budget_bytes(), 1048576u);

  // Pin tenant 7 to a near-zero rate: its burst floor admits one request,
  // the next sheds; tenant 8 is untouched by the override.
  out.clear();
  frame = AdminFrame(3, AdminOp::kSetTenantRate, 7, 1e-6, "secret");
  ASSERT_TRUE(session.OnBytes(frame.data(), frame.size(), 1, &out));
  responses = Responses(out);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].first, WireStatus::kOk);

  const auto propose = [&](uint32_t tenant, uint32_t seq) {
    return EncodeRequest(Verb::kPropose, tenant, seq,
                         EncodeProposePayload(plan_.Signature(), 1e9));
  };
  out.clear();
  std::string in = propose(7, 10) + propose(7, 11) + propose(8, 12);
  ASSERT_TRUE(session.OnBytes(in.data(), in.size(), 1, &out));
  responses = Responses(out);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].first, WireStatus::kOk);
  EXPECT_EQ(responses[1].first, WireStatus::kBusy);
  EXPECT_EQ(responses[2].first, WireStatus::kOk);
}

// The control plane works exactly when the data plane is shedding: Admin
// bypasses shutdown refusal and admission.
TEST_F(SessionTest, AdminBypassesShutdownRefusal) {
  ServerCoreOptions options;
  options.admin_token = "secret";
  ServerCore core(&service_, &registry_, options);
  Session session(&core);
  core.BeginShutdown();
  const std::string frame =
      AdminFrame(1, AdminOp::kSetSharedBudget, 0, 2048.0, "secret");
  std::string out;
  ASSERT_TRUE(session.OnBytes(frame.data(), frame.size(), 1, &out));
  const auto responses = Responses(out);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].first, WireStatus::kOk);
  EXPECT_EQ(core.shared_budget_bytes(), 2048u);
}

// Real sockets: server on an ephemeral loopback port, blocking client.
class LoopbackTest : public ::testing::Test {
 protected:
  LoopbackTest()
      : space_(sparksim::QueryLevelSpace()),
        plan_(sparksim::TpchPlan(2)),
        service_(space_, nullptr, core::TuningServiceOptions(), 2) {
    registry_.Register(&plan_);
  }

  sparksim::ConfigSpace space_;
  sparksim::QueryPlan plan_;
  core::TuningService service_;
  PlanRegistry registry_;
};

TEST_F(LoopbackTest, ProposeObserveHealthOverRealSockets) {
  ServerCore core(&service_, &registry_, ServerCoreOptions());
  ServerOptions options;
  options.io_threads = 2;
  Server server(&core, options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  client.SetRecvTimeout(5000);

  Client::Response response;
  ASSERT_TRUE(client
                  .Call(Verb::kPropose, 1,
                        EncodeProposePayload(plan_.Signature(), 1e9),
                        &response)
                  .ok());
  ASSERT_EQ(response.status, WireStatus::kOk);
  sparksim::ConfigVector config;
  ASSERT_TRUE(DecodeConfigPayload(
      reinterpret_cast<const uint8_t*>(response.payload.data()),
      response.payload.size(), &config));
  EXPECT_TRUE(space_.Validate(config).ok());

  core::QueryEndEvent event;
  event.event_id = 1;
  event.config = config;
  event.data_size = 1e9;
  event.runtime = 25.0;
  ASSERT_TRUE(client
                  .Call(Verb::kObserveQueryEnd, 1,
                        EncodeObservePayload(plan_.Signature(), event),
                        &response)
                  .ok());
  EXPECT_EQ(response.status, WireStatus::kOk);

  ASSERT_TRUE(client.Call(Verb::kHealth, 1, "", &response).ok());
  ASSERT_EQ(response.status, WireStatus::kOk);
  HealthReport health;
  ASSERT_TRUE(DecodeHealthPayload(
      reinterpret_cast<const uint8_t*>(response.payload.data()),
      response.payload.size(), &health));
  EXPECT_TRUE(health.serving);
  EXPECT_EQ(health.admission_rate, 1.0);

  server.Stop(1000);
  EXPECT_EQ(service_.observations().Count(plan_.Signature()), 1u);
}

// The `rockhopper admin` shape end-to-end: authenticated budget change over
// a real socket, wrong token refused on the same connection.
TEST_F(LoopbackTest, AdminVerbOverRealSockets) {
  ServerCoreOptions core_options;
  core_options.admin_token = "s3cret";
  ServerCore core(&service_, &registry_, core_options);
  Server server(&core, ServerOptions());
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  client.SetRecvTimeout(5000);

  AdminRequest request;
  request.op = AdminOp::kSetSharedBudget;
  request.value = 65536.0;
  request.token = "s3cret";
  Client::Response response;
  ASSERT_TRUE(
      client.Call(Verb::kAdmin, 0, EncodeAdminPayload(request), &response)
          .ok());
  EXPECT_EQ(response.status, WireStatus::kOk);
  EXPECT_EQ(core.shared_budget_bytes(), 65536u);

  request.value = 1.0;
  request.token = "guess";
  ASSERT_TRUE(
      client.Call(Verb::kAdmin, 0, EncodeAdminPayload(request), &response)
          .ok());
  EXPECT_EQ(response.status, WireStatus::kUnauthorized);
  EXPECT_EQ(core.shared_budget_bytes(), 65536u);

  server.Stop(1000);
}

TEST_F(LoopbackTest, EpollFailureFailsStartInsteadOfDegrading) {
  ServerCore core(&service_, &registry_, ServerCoreOptions());
  Server server(&core, ServerOptions());
  // Leave exactly one free descriptor below the limit: the listening socket
  // takes it, so epoll_create1 fails with EMFILE.
  struct rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  const int lowest_free = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  struct rlimit tight = saved;
  tight.rlim_cur = static_cast<rlim_t>(lowest_free) + 1;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  const Status started = server.Start();
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  EXPECT_EQ(started.code(), StatusCode::kIOError) << started.ToString();
  EXPECT_NE(started.ToString().find("epoll_create1"), std::string::npos)
      << started.ToString();
}

TEST_F(LoopbackTest, MalformedBytesGetBadFrameThenDisconnect) {
  ServerCore core(&service_, &registry_, ServerCoreOptions());
  Server server(&core, ServerOptions());
  ASSERT_TRUE(server.Start().ok());

  // An unknown verb in a well-formed frame is survivable and typed.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  client.SetRecvTimeout(5000);
  ASSERT_TRUE(client.Send(static_cast<Verb>(0), 0, 0, "").ok());
  Client::Response response;
  ASSERT_TRUE(client.Recv(&response).ok());
  EXPECT_EQ(response.status, WireStatus::kUnknownVerb);

  // Raw garbage (no valid magic) over a plain socket: one typed kBadFrame
  // response, then the server hangs up (recv reads EOF after the frame).
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string garbage = "definitely not the wire protocol\r\n";
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));
  struct timeval tv = {5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string received;
  char chunk[1024];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // EOF: the server closed on us
    received.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  FrameDecoder decoder;
  decoder.Feed(received.data(), received.size());
  Frame frame;
  ASSERT_EQ(decoder.Next(&frame), DecodeResult::kFrame);
  EXPECT_TRUE(frame.header.is_response());
  EXPECT_EQ(static_cast<WireStatus>(frame.header.verb),
            WireStatus::kBadFrame);
  server.Stop(1000);
}

TEST_F(LoopbackTest, DrainFlushesInFlightBatchesOnStop) {
  ServerCoreOptions core_options;
  core_options.max_batch = 1000;  // never auto-flush mid-stream
  ServerCore core(&service_, &registry_, core_options);
  Server server(&core, ServerOptions());
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  client.SetRecvTimeout(5000);
  const int kEvents = 10;
  for (int i = 0; i < kEvents; ++i) {
    core::QueryEndEvent event;
    event.event_id = static_cast<uint64_t>(i + 1);
    event.config = space_.Defaults();
    event.data_size = 1e9;
    event.runtime = 20.0;
    ASSERT_TRUE(client
                    .Send(Verb::kObserveQueryEnd, 1, client.NextSeq(),
                          EncodeObservePayload(plan_.Signature(), event))
                    .ok());
  }
  // Each OnBytes pass flushes what it decoded, so all acks arrive without a
  // Propose barrier; the point of this test is that none are dropped.
  int acked = 0;
  Client::Response response;
  while (acked < kEvents && client.Recv(&response).ok()) {
    EXPECT_EQ(response.status, WireStatus::kOk);
    ++acked;
  }
  EXPECT_EQ(acked, kEvents);
  server.Stop(2000);
  EXPECT_EQ(service_.observations().Count(plan_.Signature()),
            static_cast<size_t>(kEvents));
}

// The ack contract over the wire: when the client holds a kOk for an
// ObserveQueryEnd, the record is already in the journal file — no Sync,
// Close or server stop in between. The journal starts the way perfbench
// starts it, so acking a record still queued for a writer fails here.
TEST_F(LoopbackTest, ObserveAckMeansRecordIsOnDisk) {
  const test_support::TestTempDir dir;
  const std::string path = dir.File("journal.log");
  Result<core::ObservationJournal> journal =
      core::ObservationJournal::Open(path);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(journal->StartGroupCommit().ok());
  service_.AttachJournal(&*journal);
  ServerCore core(&service_, &registry_, ServerCoreOptions());
  Server server(&core, ServerOptions());
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  client.SetRecvTimeout(5000);
  constexpr int kEvents = 100;
  for (int i = 0; i < kEvents; ++i) {
    core::QueryEndEvent event;
    event.event_id = static_cast<uint64_t>(i + 1);
    event.config = space_.Defaults();
    event.data_size = 1e9;
    event.runtime = 20.0 + i;
    Client::Response response;
    ASSERT_TRUE(client
                    .Call(Verb::kObserveQueryEnd, 1,
                          EncodeObservePayload(plan_.Signature(), event),
                          &response)
                    .ok());
    ASSERT_EQ(response.status, WireStatus::kOk);
    Result<core::JournalChain> chain = core::RecoverJournalChain(path);
    ASSERT_TRUE(chain.ok());
    ASSERT_EQ(chain->tail_records, static_cast<size_t>(i + 1))
        << "acked observe " << i << " not on disk";
  }
  server.Stop(1000);
  ASSERT_TRUE(service_.Shutdown().ok());
  EXPECT_EQ(journal->lost_records(), 0u);
}

}  // namespace
}  // namespace rockhopper::net
