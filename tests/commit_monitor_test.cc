// Sensitivity tests for the invariant monitor on the message stack: each
// check must actually fire on a violating input — a core event or a message
// through the network tap (the monitor is the oracle for the whole test
// suite, so it must not be vacuous).  rdma_monitor_test covers the rdma tap.
#include <gtest/gtest.h>

#include <algorithm>

#include "commit/cluster.h"
#include "commit/monitor.h"
#include "sim/simulator.h"

namespace ratc::commit {
namespace {

using tcs::Decision;
using tcs::Payload;

Payload one_object(ObjectId o) {
  Payload p;
  p.reads = {{o, 0}};
  p.writes = {{o, 1}};
  p.commit_version = 1;
  return p;
}

/// Whether `inv` was reported, by exact name: "Invariant1" must not match
/// Invariant10-13.
bool mentions(const Monitor& m, const std::string& inv) {
  const std::vector<Violation>& all = m.violations().all();
  return std::any_of(all.begin(), all.end(),
                     [&](const Violation& v) { return v.invariant == inv; });
}

/// Shard 0 of two shards is {r100 leader, r101 follower}; r201's messages
/// to r101 take 100 ticks.  `forge_slot1` first puts another transaction
/// in r101's slot 1 by a forged ACCEPT.  Then r201 coordinates t1, which
/// the leader puts in slot 1, and r200 coordinates t2, in slot 2; the run
/// stops once t2 is decided, before t1's ACCEPT reaches r101.
struct SlowFirstAccept {
  explicit SlowFirstAccept(bool forge_slot1)
      : cluster({.seed = 11, .num_shards = 2, .shard_size = 2,
                 .link_delay = [](ProcessId from, ProcessId to) -> Duration {
                   return from == 201 && to == 101 ? 100 : 0;
                 }}),
        client(cluster.add_client()),
        leader(cluster.replica(0, 0)),
        follower(cluster.replica(0, 1)) {
    if (forge_slot1) {
      Accept forged;
      forged.epoch = 1;
      forged.shard = 0;
      forged.slot = 1;
      forged.txn = 999;
      forged.payload = one_object(8);
      forged.vote = Decision::kCommit;
      cluster.net().send_msg(client.id(), follower.id(), forged);
      cluster.sim().run();
    }
    t1 = cluster.next_txn_id();
    t2 = cluster.next_txn_id();
    client.certify_colocated(cluster.replica(1, 1), t1, one_object(0));
    cluster.sim().run_until(cluster.sim().now() + 5);
    client.certify_colocated(cluster.replica(1, 0), t2, one_object(2));
    t2_decided = cluster.sim().run_until_pred([&] { return client.decided(t2); });
  }

  Cluster cluster;
  Client& client;
  Replica& leader;
  Replica& follower;
  TxnId t1 = 0, t2 = 0;
  bool t2_decided = false;
};

TEST(MonitorSensitivity, Invariant4a_ConflictingSlotDecisions) {
  sim::Simulator sim(1);
  Monitor monitor(sim.runtime());
  // Two coordinators decide shard 0's slot 7 both ways.
  monitor.on_decided(0, 7, 42, Decision::kCommit);
  EXPECT_TRUE(monitor.violations().empty());
  monitor.on_decided(0, 7, 42, Decision::kAbort);
  EXPECT_TRUE(mentions(monitor, "Invariant4a"));
  EXPECT_TRUE(mentions(monitor, "Invariant4b"));  // same txn too
}

TEST(MonitorSensitivity, Invariant4b_ConflictingClientDecisions) {
  sim::Simulator sim(2);
  Monitor monitor(sim.runtime());
  monitor.on_client_decision(5, Decision::kCommit);
  monitor.on_client_decision(5, Decision::kAbort);
  EXPECT_TRUE(mentions(monitor, "Invariant4b"));
}

TEST(MonitorSensitivity, Invariant4b_ClientVsCoordinatorConflict) {
  sim::Simulator sim(3);
  Monitor monitor(sim.runtime());
  monitor.on_client_decision(5, Decision::kAbort);
  monitor.on_decided(1, 3, 5, Decision::kCommit);
  EXPECT_TRUE(mentions(monitor, "Invariant4b"));
  EXPECT_FALSE(mentions(monitor, "Invariant4a"));  // the slot was decided once
}

TEST(MonitorSensitivity, Invariant3_AcceptAckBelowProbedEpoch) {
  sim::Simulator sim(4);
  Monitor monitor(sim.runtime());
  // Process 7 acknowledges PROBE for epoch 5...
  monitor.on_send(0, 7, 1, sim::AnyMessage(ProbeAck{true, 5, 0}));
  // ...then acknowledges an ACCEPT at epoch 3.
  monitor.on_send(0, 7, 2, sim::AnyMessage(AcceptAck{0, 3, 1, 42, Decision::kCommit}));
  EXPECT_TRUE(mentions(monitor, "Invariant3"));
}

TEST(MonitorSensitivity, Invariant6_ConflictingAccepts) {
  sim::Simulator sim(5);
  Monitor monitor(sim.runtime());
  Accept a;
  a.epoch = 1;
  a.shard = 0;
  a.slot = 3;
  a.txn = 10;
  a.vote = Decision::kCommit;
  Accept b = a;
  b.txn = 11;  // different transaction in the same (epoch, slot)
  monitor.on_send(0, 1, 2, sim::AnyMessage(a));
  monitor.on_send(0, 1, 2, sim::AnyMessage(b));
  EXPECT_TRUE(mentions(monitor, "Invariant6"));
}

TEST(MonitorSensitivity, Invariant9_SameTxnTwoSlots) {
  sim::Simulator sim(6);
  Monitor monitor(sim.runtime());
  Accept a;
  a.epoch = 1;
  a.shard = 0;
  a.slot = 3;
  a.txn = 10;
  Accept b = a;
  b.slot = 4;  // same transaction at another slot in the same epoch
  monitor.on_send(0, 1, 2, sim::AnyMessage(a));
  monitor.on_send(0, 1, 2, sim::AnyMessage(b));
  EXPECT_TRUE(mentions(monitor, "Invariant9"));
}

TEST(MonitorSensitivity, Invariant1_FollowerSlotBelowHoldsAnotherTxn) {
  SlowFirstAccept run(/*forge_slot1=*/true);
  ASSERT_TRUE(run.t2_decided);
  ASSERT_EQ(run.leader.log().find(1)->txn, run.t1);
  ASSERT_EQ(run.follower.log().find(1)->txn, 999u);
  // r101 has acknowledged only slot 2 so far: that ACCEPT_ACK must see that
  // its slot 1 is not what the leader held at slot 2's PREPARE_ACK.
  ASSERT_FALSE(run.client.decided(run.t1));
  EXPECT_TRUE(mentions(run.cluster.monitor(), "Invariant1"))
      << run.cluster.monitor().violations().summary();
}

TEST(MonitorSensitivity, Invariant1_HolesBelowTheSlotReportNothing) {
  SlowFirstAccept run(/*forge_slot1=*/false);
  ASSERT_TRUE(run.t2_decided);
  const LogEntry* slot1 = run.follower.log().find(1);
  ASSERT_TRUE(slot1 == nullptr || !slot1->filled());  // t1's ACCEPT is in flight
  EXPECT_TRUE(run.cluster.monitor().violations().empty())
      << run.cluster.monitor().violations().summary();
  run.cluster.sim().run();
  EXPECT_TRUE(run.client.decided(run.t1));
  EXPECT_TRUE(run.cluster.monitor().violations().empty())
      << run.cluster.monitor().violations().summary();
}

TEST(MonitorSensitivity, Invariant2_InstalledLogDiffersBelowAcceptedSlot) {
  // Only t2's slot 2 is fully accepted.  r101 then installs epoch 2 from a
  // NEW_STATE that keeps slot 2 as the leader has it but holds another
  // transaction in slot 1, which the leader had filled at slot 2's
  // PREPARE_ACK: slot 2 persists, its prefix does not.
  SlowFirstAccept run(/*forge_slot1=*/false);
  ASSERT_TRUE(run.t2_decided);
  NewState ns;
  ns.epoch = 2;
  ns.members = {run.leader.id(), run.follower.id()};
  ns.log = run.leader.log();
  ns.log.at(1).txn = 999;
  ns.log.at(1).payload = one_object(8);
  run.cluster.net().send_msg(run.leader.id(), run.follower.id(), ns);
  run.cluster.sim().run_until(run.cluster.sim().now() + 5);
  ASSERT_EQ(run.follower.epoch(), 2u);
  EXPECT_TRUE(mentions(run.cluster.monitor(), "Invariant2"))
      << run.cluster.monitor().violations().summary();
  EXPECT_FALSE(mentions(run.cluster.monitor(), "Invariant1"))
      << run.cluster.monitor().violations().summary();
}

TEST(MonitorSensitivity, Invariant12b_CommitDecisionOntoAbortVote) {
  // End-to-end: create an abort-voted slot, then inject a forged commit
  // decision for it; the check where the replica applies it must fire.
  Cluster cluster({.seed = 7, .num_shards = 1, .shard_size = 2});
  Client& client = cluster.add_client();
  TxnId t1 = cluster.next_txn_id();
  TxnId t2 = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t1, one_object(0));
  client.certify_colocated(cluster.replica(0, 1), t2, one_object(0));  // conflicts
  cluster.sim().run();
  ASSERT_EQ(client.decision(t2), Decision::kAbort);

  Replica& leader = cluster.replica(0, 0);
  Slot k = leader.log().slot_of(t2);
  ASSERT_EQ(leader.log().find(k)->vote, Decision::kAbort);

  DecisionMsg forged{1, 0, k, t2, Decision::kCommit};
  cluster.net().send_msg(client.id(), leader.id(), forged);
  cluster.sim().run();
  EXPECT_TRUE(mentions(cluster.monitor(), "Invariant12b"));
}

TEST(MonitorSensitivity, CleanRunReportsNothing) {
  Cluster cluster({.seed = 8, .num_shards = 2, .shard_size = 2});
  Client& client = cluster.add_client();
  for (int i = 0; i < 20; ++i) {
    client.certify_colocated(cluster.replica(0, 1), cluster.next_txn_id(),
                             one_object(static_cast<ObjectId>(i)));
  }
  cluster.sim().run();
  EXPECT_TRUE(cluster.monitor().violations().empty())
      << cluster.monitor().violations().summary();
}

TEST(MonitorSensitivity, CoreDecisionsReachTheMonitor) {
  // The core raises the decision events itself: a transaction touching no
  // shard is decided only towards its client, one touching a shard also at
  // the shard's slot.  Both must reach TCS-LL's decided map.
  Cluster cluster({.seed = 10, .num_shards = 1, .shard_size = 2});
  Client& client = cluster.add_client();
  TxnId empty = cluster.next_txn_id(), t = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), empty, Payload{});
  client.certify_remote(cluster.replica(0, 1).id(), t, one_object(0));
  cluster.sim().run();
  ASSERT_EQ(client.decision(empty), Decision::kCommit);
  ASSERT_EQ(client.decision(t), Decision::kCommit);
  checker::TcsLLInput input = cluster.monitor().tcsll_input(
      cluster.history(), cluster.shard_map(), cluster.certifier());
  EXPECT_EQ(input.decided.count(empty), 1u);
  EXPECT_EQ(input.decided.count(t), 1u);
}

TEST(MonitorSensitivity, TcsLLCatchesForgedWitness) {
  // The TCS-LL checker must reject a record whose vote contradicts its
  // witnesses even when the protocol run was clean: corrupt the collected
  // input and verify the checker notices.
  Cluster cluster({.seed = 9, .num_shards = 1, .shard_size = 2});
  Client& client = cluster.add_client();
  TxnId t1 = cluster.next_txn_id(), t2 = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t1, one_object(0));
  cluster.sim().run();
  client.certify_colocated(cluster.replica(0, 1), t2, one_object(2));
  cluster.sim().run();
  ASSERT_EQ(client.decision(t1), Decision::kCommit);
  ASSERT_EQ(client.decision(t2), Decision::kCommit);

  checker::TcsLLInput input = cluster.monitor().tcsll_input(
      cluster.history(), cluster.shard_map(), cluster.certifier());
  ASSERT_TRUE(checker::check_tcsll(input).ok);

  // Forge: claim t2's vote ignored the committed t1.
  auto it = input.records.find({t2, 0});
  ASSERT_NE(it, input.records.end());
  it->second.committed_against.clear();
  auto result = checker::check_tcsll(input);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.summary().find("(10)"), std::string::npos);
}

}  // namespace
}  // namespace ratc::commit
