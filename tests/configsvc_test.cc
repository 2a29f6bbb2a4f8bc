#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "configsvc/client.h"
#include "configsvc/replicated_service.h"
#include "configsvc/simple_service.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace ratc::configsvc {
namespace {

/// A process that drives a CsClient and records callback results.
class CsUser : public sim::Process {
 public:
  CsUser(sim::Simulator& sim, sim::Network& net, ProcessId id,
         std::vector<ProcessId> endpoints)
      : Process(sim, id, "cs-user"), client(net.runtime(), id, std::move(endpoints)) {}

  void on_message(ProcessId, const sim::AnyMessage& msg) override {
    client.handle(msg);
  }

  CsClient client;
};

ShardConfig make_config(Epoch e, std::vector<ProcessId> members) {
  ShardConfig c;
  c.epoch = e;
  c.leader = members.front();
  c.members = std::move(members);
  return c;
}

TEST(SimpleConfigService, GetLastOnEmptyReturnsInvalid) {
  sim::Simulator sim(1);
  sim::Network net(sim);
  SimpleConfigService cs(net.runtime(), 1);
  sim.add_process(&cs);
  CsUser user(sim, net, 2, {cs.id()});
  sim.add_process(&user);

  std::optional<ShardConfig> got;
  user.client.get_last(0, [&](const ShardConfig& c) { got = c; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->valid());
}

TEST(SimpleConfigService, CasStoresAndNotifies) {
  sim::Simulator sim(2);
  sim::Network net(sim);
  SimpleConfigService cs(net.runtime(), 1);
  sim.add_process(&cs);
  CsUser user(sim, net, 2, {cs.id()});
  sim.add_process(&user);

  // Another process subscribed to notifications.
  struct Sub : sim::Process {
    using Process::Process;
    int changes = 0;
    void on_message(ProcessId, const sim::AnyMessage& msg) override {
      if (msg.is<ConfigChange>()) ++changes;
    }
  } sub(sim, 3, "sub");
  sim.add_process(&sub);
  cs.subscribe(sub.id());

  std::optional<bool> ok;
  user.client.cas(7, kNoEpoch, make_config(1, {10, 11}), [&](bool r) { ok = r; });
  sim.run();
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(*ok);
  EXPECT_EQ(cs.last(7).epoch, 1u);
  EXPECT_EQ(sub.changes, 1);
}

TEST(SimpleConfigService, CasFailsOnWrongExpectedEpoch) {
  sim::Simulator sim(3);
  sim::Network net(sim);
  SimpleConfigService cs(net.runtime(), 1);
  sim.add_process(&cs);
  cs.bootstrap(0, make_config(3, {10, 11}));
  CsUser user(sim, net, 2, {cs.id()});
  sim.add_process(&user);

  std::optional<bool> ok;
  user.client.cas(0, 1, make_config(4, {10, 12}), [&](bool r) { ok = r; });
  sim.run();
  ASSERT_TRUE(ok.has_value());
  EXPECT_FALSE(*ok);
  EXPECT_EQ(cs.last(0).epoch, 3u);
}

TEST(SimpleConfigService, CasRequiresHigherEpoch) {
  sim::Simulator sim(4);
  sim::Network net(sim);
  SimpleConfigService cs(net.runtime(), 1);
  sim.add_process(&cs);
  cs.bootstrap(0, make_config(3, {10, 11}));
  CsUser user(sim, net, 2, {cs.id()});
  sim.add_process(&user);

  std::optional<bool> ok;
  user.client.cas(0, 3, make_config(3, {10, 12}), [&](bool r) { ok = r; });
  sim.run();
  ASSERT_TRUE(ok.has_value());
  EXPECT_FALSE(*ok);
}

TEST(SimpleConfigService, ConcurrentCasOnlyOneWins) {
  sim::Simulator sim(5);
  sim::Network net(sim);
  SimpleConfigService cs(net.runtime(), 1);
  sim.add_process(&cs);
  cs.bootstrap(0, make_config(1, {10, 11}));
  CsUser u1(sim, net, 2, {cs.id()});
  CsUser u2(sim, net, 3, {cs.id()});
  sim.add_process(&u1);
  sim.add_process(&u2);

  int wins = 0, losses = 0;
  u1.client.cas(0, 1, make_config(2, {10, 12}), [&](bool r) { r ? ++wins : ++losses; });
  u2.client.cas(0, 1, make_config(2, {11, 13}), [&](bool r) { r ? ++wins : ++losses; });
  sim.run();
  EXPECT_EQ(wins, 1);
  EXPECT_EQ(losses, 1);
  EXPECT_EQ(cs.last(0).epoch, 2u);
}

TEST(SimpleConfigService, GetSpecificEpoch) {
  sim::Simulator sim(6);
  sim::Network net(sim);
  SimpleConfigService cs(net.runtime(), 1);
  sim.add_process(&cs);
  cs.bootstrap(0, make_config(1, {10, 11}));
  cs.bootstrap(0, make_config(2, {10, 12}));
  CsUser user(sim, net, 2, {cs.id()});
  sim.add_process(&user);

  std::optional<ShardConfig> got;
  bool found = false;
  user.client.get(0, 1, [&](bool f, const ShardConfig& c) {
    found = f;
    got = c;
  });
  sim.run();
  EXPECT_TRUE(found);
  EXPECT_EQ(got->members, (std::vector<ProcessId>{10, 11}));

  bool found_missing = true;
  user.client.get(0, 9, [&](bool f, const ShardConfig&) { found_missing = f; });
  sim.run();
  EXPECT_FALSE(found_missing);
}

TEST(SimpleGlobalConfigService, CasAndGet) {
  sim::Simulator sim(7);
  sim::Network net(sim);
  SimpleConfigService gcs(net.runtime(), 1);
  sim.add_process(&gcs);

  GlobalConfig boot;
  boot.epoch = 1;
  boot.members[0] = {10, 11};
  boot.members[1] = {20, 21};
  boot.leaders[0] = 10;
  boot.leaders[1] = 20;
  gcs.bootstrap(boot);

  CsUser user(sim, net, 2, {gcs.id()});
  sim.add_process(&user);

  std::optional<GlobalConfig> got;
  user.client.get_last([&](const GlobalConfig& c) { got = c; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->epoch, 1u);
  EXPECT_EQ(got->shard(1).leader, 20u);

  GlobalConfig next = *got;
  next.epoch = 2;
  next.leaders[0] = 11;
  std::optional<bool> ok;
  user.client.cas(1, next, [&](bool r) { ok = r; });
  sim.run();
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(*ok);
  EXPECT_EQ(gcs.last().epoch, 2u);

  // Wrong expected epoch fails.
  next.epoch = 3;
  user.client.cas(1, next, [&](bool r) { ok = r; });
  sim.run();
  EXPECT_FALSE(*ok);
}

TEST(ReplicatedConfigService, EndToEndCasAndQueries) {
  sim::Simulator sim(8);
  sim::Network net(sim);
  ReplicatedConfigService rcs(net.runtime());
  CsUser user(sim, net, 2, rcs.endpoints());
  sim.add_process(&user);

  std::optional<bool> ok;
  user.client.cas(0, kNoEpoch, make_config(1, {10, 11}), [&](bool r) { ok = r; });
  sim.run();
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(*ok);

  std::optional<ShardConfig> got;
  user.client.get_last(0, [&](const ShardConfig& c) { got = c; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->epoch, 1u);
}

TEST(ReplicatedConfigService, SurvivesLeaderCrashWithClientRetry) {
  sim::Simulator sim(9);
  sim::Network net(sim);
  ReplicatedConfigService rcs(net.runtime());
  rcs.bootstrap(0, make_config(1, {10, 11}));
  CsUser user(sim, net, 2, rcs.endpoints());
  sim.add_process(&user);

  // Crash the initial leader (server 0) by its one pid and elect server 1.
  sim.crash(rcs.server(0).id());
  rcs.server(1).paxos().start_election();

  std::optional<bool> ok;
  user.client.cas(0, 1, make_config(2, {10, 12}), [&](bool r) { ok = r; });
  sim.run();
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(*ok);
  EXPECT_EQ(rcs.server(1).last(0).epoch, 2u);
  EXPECT_EQ(rcs.server(2).last(0).epoch, 2u);
  // That one crash stopped the whole server, its Paxos member included: it
  // did not apply the CAS.
  EXPECT_EQ(rcs.server(0).last(0).epoch, 1u);
}

TEST(ReplicatedConfigService, NotifiesSubscribers) {
  sim::Simulator sim(10);
  sim::Network net(sim);
  ReplicatedConfigService rcs(net.runtime());
  struct Sub : sim::Process {
    using Process::Process;
    int changes = 0;
    void on_message(ProcessId, const sim::AnyMessage& msg) override {
      if (msg.is<ConfigChange>()) ++changes;
    }
  } sub(sim, 3, "sub");
  sim.add_process(&sub);
  rcs.subscribe(sub.id());

  CsUser user(sim, net, 2, rcs.endpoints());
  sim.add_process(&user);
  std::optional<bool> ok;
  user.client.cas(0, kNoEpoch, make_config(1, {10, 11}), [&](bool r) { ok = r; });
  sim.run();
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(sub.changes, 1);
}

/// Drops, or delays by `delay` ticks, the first message of type M.
template <typename M>
class FirstMessageFault : public sim::FaultInjector {
 public:
  explicit FirstMessageFault(sim::MessageFate fate) : fate_(fate) {}
  sim::MessageFate on_message(Time, ProcessId, ProcessId, const sim::AnyMessage& msg) override {
    if (!msg.is<M>() || hit_) return {};
    hit_ = true;
    return fate_;
  }

 private:
  sim::MessageFate fate_;
  bool hit_ = false;
};

/// The two ways a CAS reply goes missing for longer than the client's retry
/// period: lost, or late.
const sim::MessageFate kLostOrLate[] = {{.drop = true},
                                        {.extra_delay = 2 * CsClient::kRetryEvery}};

// A CAS that won but whose reply went missing is re-sent by the client.  The
// store must answer the retry with the first execution's reply: executing it
// again would answer "lost" for a configuration that was stored.
TEST(ConfigServiceAtMostOnce, RetriedShardCasReportsItsWin) {
  for (const sim::MessageFate& fate : kLostOrLate) {
    sim::Simulator sim(12);
    sim::Network net(sim);
    FirstMessageFault<CsCasReply> fault(fate);
    net.set_fault_injector(&fault);
    SimpleConfigService cs(net.runtime(), 1);
    sim.add_process(&cs);
    cs.bootstrap(0, make_config(1, {10, 11}));
    CsUser user(sim, net, 2, {cs.id()});
    sim.add_process(&user);

    std::vector<bool> results;
    user.client.cas(0, 1, make_config(2, {10, 12}), [&](bool r) { results.push_back(r); });
    sim.run();
    EXPECT_EQ(results, std::vector<bool>{true}) << "drop=" << fate.drop;
    EXPECT_EQ(cs.last(0).epoch, 2u);
  }
}

TEST(ConfigServiceAtMostOnce, RetriedGlobalCasReportsItsWin) {
  for (const sim::MessageFate& fate : kLostOrLate) {
    sim::Simulator sim(13);
    sim::Network net(sim);
    FirstMessageFault<GcsCasReply> fault(fate);
    net.set_fault_injector(&fault);
    SimpleConfigService cs(net.runtime(), 1);
    sim.add_process(&cs);
    GlobalConfig boot;
    boot.epoch = 1;
    boot.members[0] = {10, 11};
    boot.leaders[0] = 10;
    cs.bootstrap(boot);
    CsUser user(sim, net, 2, {cs.id()});
    sim.add_process(&user);

    GlobalConfig next = boot;
    next.epoch = 2;
    next.members[0] = {10, 12};
    std::vector<bool> results;
    user.client.cas(1, next, [&](bool r) { results.push_back(r); });
    sim.run();
    EXPECT_EQ(results, std::vector<bool>{true}) << "drop=" << fate.drop;
    EXPECT_EQ(cs.last().epoch, 2u);
  }
}

}  // namespace
}  // namespace ratc::configsvc
