#include <gtest/gtest.h>

#include "rtos/kernel.hpp"

namespace evm::rtos {
namespace {

using util::Duration;

struct KernelFixture : ::testing::Test {
  sim::Simulator sim{3};
  Kernel kernel{sim};

  TaskParams params(const std::string& name, std::int64_t period_ms,
                    std::int64_t wcet_ms, Priority prio = 8) {
    TaskParams p;
    p.name = name;
    p.period = Duration::millis(period_ms);
    p.wcet = Duration::millis(wcet_ms);
    p.priority = prio;
    return p;
  }
};

TEST_F(KernelFixture, AdmitsSchedulableTask) {
  auto id = kernel.admit_task(params("ok", 100, 10));
  EXPECT_TRUE(id.ok());
  EXPECT_NE(kernel.scheduler().task(*id), nullptr);
}

TEST_F(KernelFixture, RejectsUnschedulableSet) {
  ASSERT_TRUE(kernel.admit_task(params("a", 100, 60, 1)).ok());
  auto second = kernel.admit_task(params("b", 100, 60, 2));
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), util::StatusCode::kResourceExhausted);
  // Failed admission leaves no residue.
  EXPECT_EQ(kernel.scheduler().task_count(), 1u);
}

TEST_F(KernelFixture, RejectsInvalidParams) {
  EXPECT_FALSE(kernel.admit_task(params("zero-wcet", 100, 0)).ok());
  TaskParams p = params("neg", 0, 1);
  EXPECT_FALSE(kernel.admit_task(p).ok());
}

TEST_F(KernelFixture, RamBudgetEnforced) {
  // 6 KB usable (8 KB - 2 KB reserved). Two 3 KB stacks fit; a third fails.
  auto a = kernel.admit_task(params("a", 1000, 1), {}, {}, 3 * 1024, 0);
  ASSERT_TRUE(a.ok());
  auto b = kernel.admit_task(params("b", 1000, 1), {}, {}, 3 * 1024 - 256, 0);
  ASSERT_TRUE(b.ok());
  auto c = kernel.admit_task(params("c", 1000, 1), {}, {}, 512, 0);
  EXPECT_FALSE(c.ok());
  EXPECT_GE(kernel.ram_used(), 6 * 1024u - 256u);
}

TEST_F(KernelFixture, AdmissibleIsSideEffectFree) {
  EXPECT_TRUE(kernel.admissible(params("probe", 100, 50)));
  EXPECT_EQ(kernel.scheduler().task_count(), 0u);
}

TEST_F(KernelFixture, StartAndStopGateReleases) {
  int runs = 0;
  auto id = kernel.admit_task(params("t", 100, 5), [&] { ++runs; });
  ASSERT_TRUE(kernel.start_task(*id));
  sim.run_until(util::TimePoint::zero() + Duration::millis(350));
  EXPECT_EQ(runs, 4);
  ASSERT_TRUE(kernel.stop_task(*id));
  sim.run_until(util::TimePoint::zero() + Duration::millis(1000));
  EXPECT_EQ(runs, 4);
  // The TCB stays admitted: its RAM is still booked and it can restart.
  EXPECT_EQ(kernel.scheduler().task_count(), 1u);
  EXPECT_EQ(kernel.scheduler().task(*id)->state, TaskState::kDormant);
  ASSERT_TRUE(kernel.start_task(*id));
  sim.run_until(util::TimePoint::zero() + Duration::millis(1050));
  EXPECT_EQ(runs, 5);
}

TEST_F(KernelFixture, TaskControlErrorsCarryTheirCodes) {
  constexpr TaskId kUnknown = 42;
  EXPECT_EQ(kernel.start_task(kUnknown).code(), util::StatusCode::kNotFound);
  EXPECT_EQ(kernel.snapshot(kUnknown).status().code(), util::StatusCode::kNotFound);
  auto id = kernel.admit_task(params("t", 100, 5));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(kernel.stop_task(*id).code(), util::StatusCode::kFailedPrecondition);
  ASSERT_TRUE(kernel.start_task(*id));
  EXPECT_EQ(kernel.start_task(*id).code(), util::StatusCode::kAlreadyExists);
}

TEST_F(KernelFixture, AdmissionRunsExactResponseTimeAnalysis) {
  // A harmonic pair at 100 % utilization: both utilization bounds reject it
  // (Liu-Layland 0.83, hyperbolic 1.5 * 1.5 > 2), exact analysis admits it.
  ASSERT_TRUE(kernel.admit_task(params("fast", 100, 50, 1)).ok());
  EXPECT_TRUE(kernel.admit_task(params("slow", 200, 100, 2)).ok());
  EXPECT_EQ(kernel.scheduler().task_count(), 2u);
}

TEST_F(KernelFixture, SnapshotCapturesFullTcbImage) {
  auto id = kernel.admit_task(params("t", 250, 10, 3), {}, {}, 128, 64);
  Tcb* tcb = kernel.scheduler().task(*id);
  tcb->stack.assign(128, 0xAB);
  tcb->data.assign(64, 0xCD);
  tcb->registers.pc = 0x1234;
  tcb->registers.sp = 0x0456;
  tcb->registers.gp[7] = 99;

  auto snap = kernel.snapshot(*id);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->params.name, "t");
  EXPECT_EQ(snap->params.period.ms(), 250);
  EXPECT_EQ(snap->stack.size(), 128u);
  EXPECT_EQ(snap->stack[0], 0xAB);
  EXPECT_EQ(snap->data[10], 0xCD);
  EXPECT_EQ(snap->registers.pc, 0x1234u);
  EXPECT_EQ(snap->registers.gp[7], 99);
}

TEST_F(KernelFixture, SnapshotEncodeDecodeRoundTrip) {
  auto id = kernel.admit_task(params("traveler", 100, 5, 7), {}, {}, 32, 16);
  kernel.scheduler().task(*id)->data.assign(16, 0x5A);
  auto snap = kernel.snapshot(*id);
  ASSERT_TRUE(snap.ok());
  const auto bytes = snap->encode();
  TaskSnapshot decoded;
  ASSERT_TRUE(TaskSnapshot::decode(bytes, decoded));
  EXPECT_EQ(decoded.params.name, "traveler");
  EXPECT_EQ(decoded.params.priority, 7);
  EXPECT_EQ(decoded.data, snap->data);
  EXPECT_EQ(decoded.stack.size(), 32u);
}

TEST_F(KernelFixture, SnapshotEncodingIsTheTcbImageAndNothingMore) {
  auto id = kernel.admit_task(params("abc", 100, 5, 7), {}, {}, 32, 16);
  kernel.scheduler().task(*id)->registers.gp[31] = 0xEE;
  auto snap = kernel.snapshot(*id);
  ASSERT_TRUE(snap.ok());
  const auto bytes = snap->encode();
  // Name (u16 length + 3), four i64 timings, priority, stack and data blobs
  // (u16 length each), pc, sp and the 32 general-purpose registers.
  EXPECT_EQ(bytes.size(), (2u + 3) + 4 * 8 + 1 + (2 + 32) + (2 + 16) + 4 + 4 + 32);
  EXPECT_EQ(bytes.back(), 0xEE);  // the register file ends the encoding
}

TEST_F(KernelFixture, TruncatedSnapshotFailsToDecode) {
  auto id = kernel.admit_task(params("t", 100, 5), {}, {}, 32, 16);
  auto snap = kernel.snapshot(*id);
  ASSERT_TRUE(snap.ok());
  auto bytes = snap->encode();
  TaskSnapshot decoded;
  ASSERT_TRUE(TaskSnapshot::decode(bytes, decoded));
  bytes.pop_back();
  EXPECT_FALSE(TaskSnapshot::decode(bytes, decoded));
}

TEST_F(KernelFixture, SnapshotWithFreezeStopsTask) {
  auto id = kernel.admit_task(params("t", 100, 5));
  (void)kernel.start_task(*id);
  sim.run_until(util::TimePoint::zero() + Duration::millis(150));
  auto snap = kernel.snapshot(*id, /*freeze=*/true);
  ASSERT_TRUE(snap.ok());
  EXPECT_FALSE(kernel.scheduler().is_active(*id));
}

TEST_F(KernelFixture, SnapshotWithoutFreezeKeepsTheTaskReleasing) {
  // Replication snapshots a task that goes on running at the source.
  int runs = 0;
  auto id = kernel.admit_task(params("t", 100, 5), [&] { ++runs; });
  (void)kernel.start_task(*id);
  sim.run_until(util::TimePoint::zero() + Duration::millis(150));
  ASSERT_TRUE(kernel.snapshot(*id).ok());
  EXPECT_TRUE(kernel.scheduler().is_active(*id));
  sim.run_until(util::TimePoint::zero() + Duration::millis(350));
  EXPECT_EQ(runs, 4);
}

TEST_F(KernelFixture, UtilizationAndCapacityAccessors) {
  EXPECT_EQ(kernel.ram_capacity(), 6 * 1024u);
  auto id = kernel.admit_task(params("t", 100, 25));
  (void)kernel.start_task(*id);
  EXPECT_DOUBLE_EQ(kernel.utilization(), 0.25);
}

}  // namespace
}  // namespace evm::rtos
