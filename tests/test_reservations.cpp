#include <gtest/gtest.h>

#include "rtos/reservation.hpp"

namespace evm::rtos {
namespace {

using util::Duration;

struct ReservationFixture : ::testing::Test {
  sim::Simulator sim{6};
  ReservationManager manager{sim};

  void advance(Duration d) { sim.run_until(sim.now() + d); }
};

TEST_F(ReservationFixture, CpuCreateValidates) {
  EXPECT_FALSE(manager.create_cpu({Duration::zero(), Duration::millis(100)}).ok());
  EXPECT_FALSE(manager.create_cpu({Duration::millis(200), Duration::millis(100)}).ok());
  EXPECT_TRUE(manager.create_cpu({Duration::millis(10), Duration::millis(100)}).ok());
}

TEST_F(ReservationFixture, CpuAdmissionCapsTotalUtilization) {
  ASSERT_TRUE(manager.create_cpu({Duration::millis(60), Duration::millis(100)}).ok());
  auto second = manager.create_cpu({Duration::millis(50), Duration::millis(100)});
  EXPECT_FALSE(second.ok());
  EXPECT_NEAR(manager.cpu_total_utilization(), 0.6, 1e-12);
}

TEST_F(ReservationFixture, CpuBudgetReplenishesPerPeriod) {
  auto id = manager.create_cpu({Duration::millis(10), Duration::millis(100)});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(manager.cpu_consume(*id, Duration::millis(15)).ms(), 10);
  EXPECT_EQ(manager.cpu_available(*id).ms(), 0);
  advance(Duration::millis(100));
  EXPECT_EQ(manager.cpu_available(*id).ms(), 10);
}

TEST_F(ReservationFixture, CpuNextReplenishTime) {
  auto id = manager.create_cpu({Duration::millis(10), Duration::millis(100)});
  advance(Duration::millis(250));
  // Period boundaries at 0, 100, 200, 300...
  EXPECT_EQ(manager.cpu_next_replenish(*id).ms(), 300);
}

TEST_F(ReservationFixture, CpuDestroyReleasesUtilization) {
  auto id = manager.create_cpu({Duration::millis(90), Duration::millis(100)});
  ASSERT_TRUE(manager.destroy_cpu(*id));
  EXPECT_FALSE(manager.destroy_cpu(*id));
  EXPECT_TRUE(manager.create_cpu({Duration::millis(90), Duration::millis(100)}).ok());
}

TEST_F(ReservationFixture, UnknownCpuReservationIsUnlimited) {
  EXPECT_EQ(manager.cpu_available(999), Duration::max());
  EXPECT_EQ(manager.cpu_consume(999, Duration::millis(5)).ms(), 5);
}

}  // namespace
}  // namespace evm::rtos
