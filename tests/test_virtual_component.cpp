#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>

#include "core/virtual_component.hpp"

namespace evm::core {
namespace {

VcDescriptor sample_vc() {
  VcDescriptor vc;
  vc.id = 1;
  vc.head = 1;
  vc.members = {1, 2, 3, 4};
  ControlFunction f;
  f.id = 10;
  f.name = "loop";
  vc.functions[10] = f;
  vc.replicas[10] = {3, 4, 2};  // 3 primary; 4 and 2 backups in that order
  vc.transfers.push_back({4, 3, TransferType::kHealthAssessment,
                          util::Duration::zero(), FaultResponse::kTriggerBackup});
  vc.transfers.push_back({2, 3, TransferType::kDirectional, {}, {}});
  return vc;
}

TEST(VcDescriptor, Membership) {
  const auto vc = sample_vc();
  EXPECT_TRUE(vc.is_member(3));
  EXPECT_FALSE(vc.is_member(9));
}

TEST(VcDescriptor, InitialPrimaryAndModes) {
  const auto vc = sample_vc();
  EXPECT_EQ(vc.initial_primary(10), 3);
  EXPECT_EQ(vc.initial_mode(10, 3), ControllerMode::kActive);
  EXPECT_EQ(vc.initial_mode(10, 4), ControllerMode::kBackup);
  EXPECT_EQ(vc.initial_mode(10, 2), ControllerMode::kBackup);
  EXPECT_EQ(vc.initial_mode(10, 1), ControllerMode::kDormant);
  EXPECT_EQ(vc.initial_mode(99, 3), ControllerMode::kDormant);
  EXPECT_FALSE(vc.initial_primary(99).has_value());
}

TEST(VcDescriptor, HealthTransferQuery) {
  const auto vc = sample_vc();
  const auto transfers = vc.health_transfers_from(4);
  ASSERT_EQ(transfers.size(), 1u);
  EXPECT_EQ(transfers[0].to, 3);
  EXPECT_EQ(transfers[0].response, FaultResponse::kTriggerBackup);
  EXPECT_TRUE(vc.health_transfers_from(2).empty());  // directional, not health
}

TEST(TransferType, Names) {
  EXPECT_STREQ(to_string(TransferType::kDisjoint), "disjoint");
  EXPECT_STREQ(to_string(TransferType::kTemporalConditional), "temporal-conditional");
  EXPECT_STREQ(to_string(TransferType::kCausalConditional), "causal-conditional");
  EXPECT_STREQ(to_string(TransferType::kHealthAssessment), "health-assessment");
  EXPECT_STREQ(to_string(FaultResponse::kFailSafe), "fail-safe");
}

TEST(TransferType, EveryTypeHasADistinctName) {
  const TransferType types[] = {
      TransferType::kDisjoint,           TransferType::kDirectional,
      TransferType::kBidirectional,      TransferType::kTemporalConditional,
      TransferType::kCausalConditional,  TransferType::kHealthAssessment};
  std::set<std::string> names;
  for (TransferType type : types) names.insert(to_string(type));
  EXPECT_EQ(names.size(), std::size(types));
  EXPECT_EQ(names.count("directional"), 1u);
  EXPECT_EQ(names.count("bidirectional"), 1u);
  EXPECT_EQ(names.count("?"), 0u);
}

TEST(FaultResponse, Names) {
  EXPECT_STREQ(to_string(FaultResponse::kAlert), "alert");
  EXPECT_STREQ(to_string(FaultResponse::kTriggerBackup), "trigger-backup");
  EXPECT_STREQ(to_string(FaultResponse::kHalt), "halt");
  EXPECT_STREQ(to_string(FaultResponse::kFailSafe), "fail-safe");
}

}  // namespace
}  // namespace evm::core
