#include <gtest/gtest.h>

#include <memory>

#include "core/migration.hpp"
#include "net/medium.hpp"
#include "net/rtlink.hpp"

namespace evm::core {
namespace {

struct MigrationHarness {
  sim::Simulator sim{8};
  net::Topology topo = net::Topology::line({1, 2, 3});
  net::Medium medium{sim, topo};
  net::RtLinkSchedule schedule{6, util::Duration::millis(5)};
  net::TimeSync sync{sim, {}};

  struct Stack {
    net::NodeClock clock;
    std::unique_ptr<net::Radio> radio;
    std::unique_ptr<net::RtLink> mac;
    std::unique_ptr<net::Router> router;
    std::unique_ptr<MigrationEngine> engine;
  };
  std::map<net::NodeId, Stack> stacks;

  MigrationEngine& make_node(net::NodeId id) {
    auto& s = stacks[id];
    s.radio = std::make_unique<net::Radio>(sim, medium, id);
    s.mac = std::make_unique<net::RtLink>(sim, *s.radio, s.clock, schedule);
    s.router = std::make_unique<net::Router>(*s.mac, topo);
    s.engine = std::make_unique<MigrationEngine>(sim, *s.router);
    s.router->set_receive_handler(
        [&s](const net::Datagram& d) { s.engine->handle(d); });
    sync.attach(id, s.clock);
    schedule.assign_tx((static_cast<int>(id) - 1) * 2, id);
    schedule.assign_tx((static_cast<int>(id) - 1) * 2 + 1, id);
    return *s.engine;
  }

  void start_all() {
    sync.start();
    for (auto& [id, s] : stacks) {
      (void)id;
      s.mac->start();
    }
  }
  void run_for(util::Duration d) { sim.run_until(sim.now() + d); }

  static std::vector<std::uint8_t> payload_of(std::size_t n) {
    std::vector<std::uint8_t> p(n);
    for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint8_t>(i * 7);
    return p;
  }
};

struct MigrationFixture : ::testing::Test, MigrationHarness {};

TEST_F(MigrationFixture, SingleHopTransferCommits) {
  MigrationEngine& src = make_node(1);
  MigrationEngine& dst = make_node(2);

  std::vector<std::uint8_t> received;
  dst.set_payload_handler([&](const MigrationOfferMsg& meta,
                              const std::vector<std::uint8_t>& payload) {
    EXPECT_EQ(meta.total_bytes, payload.size());
    received = payload;
    return true;
  });
  start_all();

  const auto payload = payload_of(300);
  MigrationOutcome outcome;
  bool done = false;
  MigrationOfferMsg meta;
  meta.vc = 1;
  meta.function = 5;
  src.initiate(2, meta, payload, [&](const MigrationOutcome& o) {
    outcome = o;
    done = true;
  });
  run_for(util::Duration::seconds(10));

  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.success) << outcome.failure;
  EXPECT_EQ(outcome.bytes, 300u);
  EXPECT_EQ(outcome.chunks, 5u);  // 300 bytes / 64-byte chunks
  EXPECT_EQ(received, payload);
  EXPECT_EQ(src.sessions_completed(), 1u);
}

TEST_F(MigrationFixture, MultiHopTransfer) {
  MigrationEngine& src = make_node(1);
  make_node(2);  // forwarder
  MigrationEngine& dst = make_node(3);
  std::vector<std::uint8_t> received;
  dst.set_payload_handler(
      [&](const MigrationOfferMsg&, const std::vector<std::uint8_t>& p) {
        received = p;
        return true;
      });
  start_all();

  bool success = false;
  src.initiate(3, {}, payload_of(200),
               [&](const MigrationOutcome& o) { success = o.success; });
  run_for(util::Duration::seconds(20));
  EXPECT_TRUE(success);
  EXPECT_EQ(received.size(), 200u);
}

TEST_F(MigrationFixture, CapabilityRejectionFailsCleanly) {
  MigrationEngine& src = make_node(1);
  MigrationEngine& dst = make_node(2);
  dst.set_capability_checker([](const MigrationOfferMsg& offer) {
    return offer.required_utilization <= 0.1;  // too demanding -> reject
  });
  start_all();

  MigrationOfferMsg meta;
  meta.required_utilization = 0.5;
  MigrationOutcome outcome;
  bool done = false;
  src.initiate(2, meta, payload_of(100), [&](const MigrationOutcome& o) {
    outcome = o;
    done = true;
  });
  run_for(util::Duration::seconds(5));
  ASSERT_TRUE(done);
  EXPECT_FALSE(outcome.success);
  EXPECT_NE(outcome.failure.find("capability"), std::string::npos);
}

TEST_F(MigrationFixture, DestinationVerdictFailurePropagates) {
  MigrationEngine& src = make_node(1);
  MigrationEngine& dst = make_node(2);
  dst.set_payload_handler(
      [](const MigrationOfferMsg&, const std::vector<std::uint8_t>&) {
        return false;  // attestation / admission failed at destination
      });
  start_all();

  MigrationOutcome outcome;
  bool done = false;
  src.initiate(2, {}, payload_of(64), [&](const MigrationOutcome& o) {
    outcome = o;
    done = true;
  });
  run_for(util::Duration::seconds(5));
  ASSERT_TRUE(done);
  EXPECT_FALSE(outcome.success);
}

TEST_F(MigrationFixture, LossyLinkRetransmitsAndSucceeds) {
  topo.set_loss(1, 2, 0.3);
  MigrationEngine& src = make_node(1);
  MigrationEngine& dst = make_node(2);
  std::vector<std::uint8_t> received;
  dst.set_payload_handler(
      [&](const MigrationOfferMsg&, const std::vector<std::uint8_t>& p) {
        received = p;
        return true;
      });
  start_all();

  const auto payload = payload_of(400);
  MigrationOutcome outcome;
  bool done = false;
  src.initiate(2, {}, payload, [&](const MigrationOutcome& o) {
    outcome = o;
    done = true;
  });
  run_for(util::Duration::seconds(60));
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.success) << outcome.failure;
  EXPECT_GT(outcome.retransmissions, 0);
  EXPECT_EQ(received, payload);
}

TEST_F(MigrationFixture, UnreachableDestinationTimesOut) {
  MigrationEngine& src = make_node(1);
  make_node(2);
  start_all();
  topo.set_link_up(1, 2, false);

  MigrationOutcome outcome;
  bool done = false;
  src.initiate(2, {}, payload_of(64), [&](const MigrationOutcome& o) {
    outcome = o;
    done = true;
  });
  run_for(util::Duration::seconds(60));
  ASSERT_TRUE(done);
  EXPECT_FALSE(outcome.success);
}

TEST_F(MigrationFixture, ZeroBytePayloadStillCommits) {
  MigrationEngine& src = make_node(1);
  MigrationEngine& dst = make_node(2);
  bool handled = false;
  dst.set_payload_handler(
      [&](const MigrationOfferMsg&, const std::vector<std::uint8_t>& p) {
        handled = true;
        EXPECT_TRUE(p.empty());
        return true;
      });
  start_all();
  bool success = false;
  src.initiate(2, {}, {}, [&](const MigrationOutcome& o) { success = o.success; });
  run_for(util::Duration::seconds(5));
  EXPECT_TRUE(success);
  EXPECT_TRUE(handled);
}

// The destination's first commit verdict is lost on its way back. The
// source times out and re-sends the final chunk; the destination, whose
// session is already closed, re-acks it and repeats the kept verdict
// without running the payload handler again.
struct LostCommitFixture : MigrationFixture {
  int handled = 0;
  int commits_seen = 0;
  MigrationOutcome outcome;
  bool done = false;

  void run(bool verdict) {
    MigrationEngine& src = make_node(1);
    MigrationEngine& dst = make_node(2);
    dst.set_payload_handler(
        [this, verdict](const MigrationOfferMsg&, const std::vector<std::uint8_t>&) {
          ++handled;
          return verdict;
        });
    Stack& source = stacks[1];
    source.router->set_receive_handler([this, &source](const net::Datagram& d) {
      if (d.type == static_cast<std::uint8_t>(MsgType::kMigrationCommit) &&
          ++commits_seen == 1) {
        return;  // the first verdict never arrives
      }
      source.engine->handle(d);
    });
    start_all();
    src.initiate(2, {}, payload_of(100), [this](const MigrationOutcome& o) {
      outcome = o;
      done = true;
    });
    run_for(util::Duration::seconds(10));
  }
};

TEST_F(LostCommitFixture, SuccessVerdictIsRepeatedForTheResentFinalChunk) {
  run(true);
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.success) << outcome.failure;
  EXPECT_EQ(commits_seen, 2);
  EXPECT_EQ(handled, 1);
  EXPECT_GE(outcome.retransmissions, 1);
}

TEST_F(LostCommitFixture, FailureVerdictIsRepeatedForTheResentFinalChunk) {
  run(false);
  ASSERT_TRUE(done);
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(outcome.failure, "destination failed attestation/admission");
  EXPECT_EQ(commits_seen, 2);
  EXPECT_EQ(handled, 1);
}

class MigrationSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MigrationSizes, RoundTripsAllSizes) {
  MigrationHarness fixture;
  auto& src = fixture.make_node(1);
  auto& dst = fixture.make_node(2);
  std::vector<std::uint8_t> received;
  dst.set_payload_handler(
      [&](const MigrationOfferMsg&, const std::vector<std::uint8_t>& p) {
        received = p;
        return true;
      });
  fixture.start_all();
  const auto payload = MigrationHarness::payload_of(GetParam());
  bool success = false;
  src.initiate(2, {}, payload,
               [&](const MigrationOutcome& o) { success = o.success; });
  fixture.run_for(util::Duration::seconds(120));
  EXPECT_TRUE(success);
  EXPECT_EQ(received, payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MigrationSizes,
                         ::testing::Values(1, 63, 64, 65, 128, 1000, 4096));

}  // namespace
}  // namespace evm::core
