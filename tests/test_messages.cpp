#include <gtest/gtest.h>

#include "core/messages.hpp"

namespace evm::core {
namespace {

TEST(Messages, SensorDataRoundTrip) {
  SensorDataMsg m;
  m.vc = 3;
  m.stream = 7;
  m.value = 49.75;
  m.timestamp_ns = 123456789012345;
  SensorDataMsg out;
  ASSERT_TRUE(SensorDataMsg::decode(m.encode(), out));
  EXPECT_EQ(out.vc, 3);
  EXPECT_EQ(out.stream, 7);
  EXPECT_DOUBLE_EQ(out.value, 49.75);
  EXPECT_EQ(out.timestamp_ns, 123456789012345);
}

TEST(Messages, ActuationRoundTrip) {
  ActuationMsg m;
  m.vc = 1;
  m.function = 4;
  m.channel = 2;
  m.value = 11.48;
  m.source = 3;
  m.cycle = 99;
  ActuationMsg out;
  ASSERT_TRUE(ActuationMsg::decode(m.encode(), out));
  EXPECT_EQ(out.function, 4);
  EXPECT_DOUBLE_EQ(out.value, 11.48);
  EXPECT_EQ(out.source, 3);
  EXPECT_EQ(out.cycle, 99u);
}

TEST(Messages, HeartbeatRoundTrip) {
  HeartbeatMsg m;
  m.vc = 1;
  m.function = 2;
  m.node = 5;
  m.mode = ControllerMode::kBackup;
  m.output = -7.5;
  m.cycle = 1200;
  HeartbeatMsg out;
  ASSERT_TRUE(HeartbeatMsg::decode(m.encode(), out));
  EXPECT_EQ(out.mode, ControllerMode::kBackup);
  EXPECT_DOUBLE_EQ(out.output, -7.5);
  EXPECT_EQ(out.cycle, 1200u);
}

TEST(Messages, ModeCommandRoundTrip) {
  ModeCommandMsg m;
  m.vc = 1;
  m.function = 1;
  m.target = 4;
  m.mode = ControllerMode::kActive;
  m.epoch = 17;
  ModeCommandMsg out;
  ASSERT_TRUE(ModeCommandMsg::decode(m.encode(), out));
  EXPECT_EQ(out.target, 4);
  EXPECT_EQ(out.mode, ControllerMode::kActive);
  EXPECT_EQ(out.epoch, 17u);
}

TEST(Messages, FaultReportRoundTrip) {
  FaultReportMsg m;
  m.vc = 1;
  m.function = 1;
  m.suspect = 3;
  m.reporter = 4;
  m.reason = FaultReason::kImplausibleOutput;
  m.observed = 75.0;
  m.expected = 11.48;
  m.evidence = 1200;
  FaultReportMsg out;
  ASSERT_TRUE(FaultReportMsg::decode(m.encode(), out));
  EXPECT_EQ(out.suspect, 3);
  EXPECT_EQ(out.reporter, 4);
  EXPECT_EQ(out.reason, FaultReason::kImplausibleOutput);
  EXPECT_DOUBLE_EQ(out.observed, 75.0);
  EXPECT_EQ(out.evidence, 1200u);
}

TEST(Messages, MembershipHelloRoundTrip) {
  MembershipHelloMsg m;
  m.vc = 2;
  m.node = 9;
  m.cpu_headroom = 0.85;
  m.ram_free = 4096;
  m.battery_percent = 73;
  MembershipHelloMsg out;
  ASSERT_TRUE(MembershipHelloMsg::decode(m.encode(), out));
  EXPECT_DOUBLE_EQ(out.cpu_headroom, 0.85);
  EXPECT_EQ(out.ram_free, 4096u);
  EXPECT_EQ(out.battery_percent, 73);
}

TEST(Messages, MigrationOfferRoundTrip) {
  MigrationOfferMsg m;
  m.vc = 1;
  m.function = 6;
  m.session = 42;
  m.total_bytes = 700;
  m.chunk_count = 11;
  m.required_utilization = 0.15;
  m.required_ram = 512;
  MigrationOfferMsg out;
  ASSERT_TRUE(MigrationOfferMsg::decode(m.encode(), out));
  EXPECT_EQ(out.session, 42);
  EXPECT_EQ(out.total_bytes, 700u);
  EXPECT_EQ(out.chunk_count, 11);
  EXPECT_DOUBLE_EQ(out.required_utilization, 0.15);
}

TEST(Messages, StateChunkRoundTrip) {
  StateChunkMsg m;
  m.session = 1;
  m.index = 5;
  m.data = {1, 2, 3, 4};
  StateChunkMsg out;
  ASSERT_TRUE(StateChunkMsg::decode(m.encode(), out));
  EXPECT_EQ(out.index, 5);
  EXPECT_EQ(out.data, m.data);
}

TEST(Messages, AcksAndCommits) {
  ChunkAckMsg ack;
  ack.session = 3;
  ack.index = 8;
  ChunkAckMsg ack_out;
  ASSERT_TRUE(ChunkAckMsg::decode(ack.encode(), ack_out));
  EXPECT_EQ(ack_out.index, 8);

  MigrationCommitMsg commit;
  commit.session = 3;
  commit.success = 1;
  MigrationCommitMsg commit_out;
  ASSERT_TRUE(MigrationCommitMsg::decode(commit.encode(), commit_out));
  EXPECT_EQ(commit_out.success, 1);

  MigrationReplyMsg reply;
  reply.session = 3;
  reply.accept = 0;
  MigrationReplyMsg reply_out;
  ASSERT_TRUE(MigrationReplyMsg::decode(reply.encode(), reply_out));
  EXPECT_EQ(reply_out.accept, 0);
}

TEST(Messages, TruncatedDecodesFail) {
  SensorDataMsg m;
  auto bytes = m.encode();
  bytes.resize(bytes.size() - 1);
  SensorDataMsg out;
  EXPECT_FALSE(SensorDataMsg::decode(bytes, out));

  FaultReportMsg f;
  auto fbytes = f.encode();
  fbytes.resize(3);
  FaultReportMsg fout;
  EXPECT_FALSE(FaultReportMsg::decode(fbytes, fout));
}

TEST(Messages, SensorDataCarriesSequence) {
  SensorDataMsg m;
  m.seq = 0xDEADBEEF;
  SensorDataMsg out;
  ASSERT_TRUE(SensorDataMsg::decode(m.encode(), out));
  EXPECT_EQ(out.seq, 0xDEADBEEFu);
}

TEST(Messages, AlgorithmUpdateRoundTrip) {
  AlgorithmUpdateMsg m;
  m.vc = 1;
  m.function = 3;
  m.capsule_bytes = {9, 8, 7, 6};
  AlgorithmUpdateMsg out;
  ASSERT_TRUE(AlgorithmUpdateMsg::decode(m.encode(), out));
  EXPECT_EQ(out.function, 3);
  EXPECT_EQ(out.capsule_bytes, m.capsule_bytes);
}

TEST(Modes, ToString) {
  EXPECT_STREQ(to_string(ControllerMode::kActive), "Active");
  EXPECT_STREQ(to_string(ControllerMode::kBackup), "Backup");
  EXPECT_STREQ(to_string(ControllerMode::kIndicator), "Indicator");
  EXPECT_STREQ(to_string(ControllerMode::kDormant), "Dormant");
}

}  // namespace
}  // namespace evm::core
