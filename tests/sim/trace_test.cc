#include "sim/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/flighting.h"
#include "core/tuning_service.h"
#include "sim/service_digest.h"
#include "sparksim/config_space.h"
#include "support/test_temp_dir.h"

namespace rockhopper::sim {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  core::QueryEndEvent Event(uint64_t id, double runtime, bool failed = false) {
    core::QueryEndEvent event;
    event.event_id = id;
    event.config = {128.0 * 1024 * 1024, 10.0 * 1024 * 1024, 200.0};
    event.data_size = 1.5e9;
    event.runtime = runtime;
    event.failed = failed;
    event.failure = failed ? sparksim::FailureKind::kExecutorOom
                           : sparksim::FailureKind::kNone;
    return event;
  }

  // Records one proposal and two deliveries (one failed) and seals the file.
  void WriteSmallTrace(uint64_t signature) {
    auto recorder = TraceRecorder::Open(path_);
    ASSERT_TRUE(recorder.ok());
    const sparksim::ConfigVector config = {256.0 * 1024 * 1024,
                                           20.0 * 1024 * 1024, 100.0};
    ASSERT_TRUE(
        recorder->RecordProposal(0.5, signature, 1.5e9, config).ok());
    ASSERT_TRUE(recorder->RecordEndEvent(1.25, signature, Event(1, 42.5)).ok());
    ASSERT_TRUE(
        recorder->RecordEndEvent(2.5, signature, Event(2, 17.0, true)).ok());
    ASSERT_TRUE(recorder->Close().ok());
  }

  std::string ReadAll() {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  void WriteAll(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  const test_support::TestTempDir temp_;
  const std::string path_ = temp_.File("run.trace");
};

TEST_F(TraceTest, RoundTripPreservesEveryField) {
  WriteSmallTrace(/*signature=*/99);
  auto trace = TraceReplayer::Read(path_);
  ASSERT_TRUE(trace.ok());
  ASSERT_EQ(trace->records.size(), 3u);

  const TraceRecord& proposal = trace->records[0];
  EXPECT_EQ(proposal.kind, TraceRecord::Kind::kProposal);
  EXPECT_EQ(proposal.signature, 99u);
  EXPECT_DOUBLE_EQ(proposal.timestamp, 0.5);
  EXPECT_DOUBLE_EQ(proposal.data_size, 1.5e9);
  ASSERT_EQ(proposal.config.size(), 3u);
  EXPECT_DOUBLE_EQ(proposal.config[0], 256.0 * 1024 * 1024);

  const TraceRecord& ok_event = trace->records[1];
  EXPECT_EQ(ok_event.kind, TraceRecord::Kind::kEndEvent);
  EXPECT_EQ(ok_event.event.event_id, 1u);
  EXPECT_DOUBLE_EQ(ok_event.event.runtime, 42.5);
  EXPECT_FALSE(ok_event.event.failed);

  const TraceRecord& failed_event = trace->records[2];
  EXPECT_TRUE(failed_event.event.failed);
  EXPECT_EQ(failed_event.event.failure, sparksim::FailureKind::kExecutorOom);
  ASSERT_EQ(failed_event.event.config.size(), 3u);
}

TEST_F(TraceTest, MissingFileIsNotFound) {
  auto trace = TraceReplayer::Read(path_ + ".absent");
  EXPECT_EQ(trace.status().code(), StatusCode::kNotFound);
}

TEST_F(TraceTest, ForeignHeaderIsInvalidArgument) {
  WriteAll("not a trace at all\nsome more\n");
  auto trace = TraceReplayer::Read(path_);
  EXPECT_EQ(trace.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(TraceTest, CorruptByteIsDataLoss) {
  WriteSmallTrace(99);
  std::string bytes = ReadAll();
  // Flip one payload byte in the middle of the file: the CRC must catch it.
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x04);
  WriteAll(bytes);
  auto trace = TraceReplayer::Read(path_);
  EXPECT_EQ(trace.status().code(), StatusCode::kDataLoss);
}

TEST_F(TraceTest, TruncationIsDataLoss) {
  WriteSmallTrace(99);
  const std::string bytes = ReadAll();
  // Cut mid-record (torn write) and at a record boundary before the footer
  // (lost footer): both are torn traces, never silently replayable.
  WriteAll(bytes.substr(0, bytes.size() - 3));
  EXPECT_EQ(TraceReplayer::Read(path_).status().code(), StatusCode::kDataLoss);
  const size_t footer_start = bytes.rfind('\n', bytes.size() - 2) + 1;
  WriteAll(bytes.substr(0, footer_start));
  EXPECT_EQ(TraceReplayer::Read(path_).status().code(), StatusCode::kDataLoss);
}

TEST_F(TraceTest, RecordsAfterFooterAreDataLoss) {
  WriteSmallTrace(99);
  std::string bytes = ReadAll();
  const size_t footer_start = bytes.rfind('\n', bytes.size() - 2) + 1;
  // Replay the first record line after the footer.
  const size_t header_end = bytes.find('\n') + 1;
  const size_t first_line_end = bytes.find('\n', header_end) + 1;
  bytes += bytes.substr(header_end, first_line_end - header_end);
  WriteAll(bytes);
  EXPECT_EQ(TraceReplayer::Read(path_).status().code(), StatusCode::kDataLoss);
  (void)footer_start;
}

TEST_F(TraceTest, ReplayCountsUnknownSignatures) {
  WriteSmallTrace(/*signature=*/12345);  // matches no TPC-H plan
  auto trace = TraceReplayer::Read(path_);
  ASSERT_TRUE(trace.ok());
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  core::TuningService service(space, nullptr, {}, 1);
  std::vector<sparksim::QueryPlan> plans = {
      core::FlightingPipeline::PlanFor(core::FlightingConfig::Suite::kTpch, 1)};
  auto report = TraceReplayer::Replay(*trace, &service, plans);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->proposals, 0u);
  EXPECT_EQ(report->events, 0u);
  EXPECT_EQ(report->unknown_signatures, 3u);
}

TEST_F(TraceTest, ReplayTwiceConvergesToIdenticalState) {
  const sparksim::QueryPlan plan =
      core::FlightingPipeline::PlanFor(core::FlightingConfig::Suite::kTpch, 1);
  WriteSmallTrace(plan.Signature());
  auto trace = TraceReplayer::Read(path_);
  ASSERT_TRUE(trace.ok());

  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  const std::vector<sparksim::QueryPlan> plans = {plan};
  const std::vector<uint64_t> signatures = {plan.Signature()};
  std::string digests[2];
  for (int pass = 0; pass < 2; ++pass) {
    core::TuningService service(space, nullptr, {}, 7);
    auto report = TraceReplayer::Replay(*trace, &service, plans);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->proposals, 1u);
    EXPECT_EQ(report->events, 2u);
    digests[pass] = DigestServiceState(service, signatures);
  }
  EXPECT_EQ(digests[0], digests[1]);
}

}  // namespace
}  // namespace rockhopper::sim
