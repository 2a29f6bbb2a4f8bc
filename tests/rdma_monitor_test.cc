// Sensitivity tests for the invariants the rdma stack checks through the
// shared monitor (commit/monitor.h): each must fire on a violating input
// that travels the rdma path — a one-sided write through the fabric tap, a
// configuration through the network tap, or a forged write or state
// transfer in a running rdma::Cluster.  commit_monitor_test covers the
// message stack.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "commit/monitor.h"
#include "rdma/cluster.h"
#include "rdma/fabric.h"
#include "rdma/monitor_tap.h"
#include "sim/network.h"

namespace ratc::rdma {
namespace {

using commit::Client;
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
bool mentions(const commit::Monitor& m, const std::string& inv) {
  const std::vector<Violation>& all = m.violations().all();
  return std::any_of(all.begin(), all.end(),
                     [&](const Violation& v) { return v.invariant == inv; });
}

RAccept raccept(Epoch epoch, Slot slot, TxnId txn) {
  RAccept a;
  a.epoch = epoch;
  a.shard = 0;
  a.slot = slot;
  a.txn = txn;
  a.payload = one_object(static_cast<ObjectId>(txn));
  a.vote = Decision::kCommit;
  return a;
}

/// A monitor tapping a bare fabric and network, as rdma::Cluster taps its.
struct TapHarness {
  explicit TapHarness(std::uint64_t seed)
      : sim(seed), net(sim), fabric(sim), monitor(net.runtime()), tap(monitor) {
    net.add_observer(&tap);
    fabric.add_observer(&tap);
  }

  sim::Simulator sim;
  sim::Network net;
  Fabric fabric;
  commit::Monitor monitor;
  MonitorTap tap;
};

TEST(RdmaInvariantSensitivity, Invariant6_ConflictingWrites) {
  TapHarness h(1);
  h.fabric.send_rdma(1, 2, sim::AnyMessage(raccept(1, 3, 10)));
  EXPECT_TRUE(h.monitor.violations().empty());
  // Another transaction written into the same (epoch, slot).
  h.fabric.send_rdma(1, 3, sim::AnyMessage(raccept(1, 3, 11)));
  EXPECT_TRUE(mentions(h.monitor, "Invariant6"));
}

TEST(RdmaInvariantSensitivity, Invariant9_SameTxnTwoSlots) {
  TapHarness h(2);
  RAcceptBatch batch;
  batch.items = {raccept(1, 3, 10), raccept(1, 4, 10)};  // same txn, same epoch
  h.fabric.send_rdma(1, 2, sim::AnyMessage(batch));
  EXPECT_TRUE(mentions(h.monitor, "Invariant9"));
}

TEST(RdmaInvariantSensitivity, Invariant5_SkippedProcessRejoins) {
  // r101 crashes and the spare replaces it at epoch 2, whose first slot is
  // then fully accepted; a later configuration that brings r101 back
  // violates Inv 5.
  Cluster cluster({.seed = 3, .num_shards = 1, .shard_size = 2, .spares_per_shard = 1});
  Client& client = cluster.add_client();
  ProcessId skipped = cluster.replica(0, 1).id();
  cluster.crash(skipped);
  cluster.replica(0, 0).reconfigure();
  ASSERT_TRUE(cluster.await_active_epoch(2));
  ASSERT_FALSE(cluster.current_config(0).has_member(skipped));
  ProcessId leader = cluster.leader_of(0);
  TxnId t = cluster.next_txn_id();
  client.certify_colocated(cluster.replica_by_pid(leader), t, one_object(0));
  cluster.sim().run();
  ASSERT_EQ(client.decision(t), Decision::kCommit);
  EXPECT_TRUE(cluster.monitor().violations().empty())
      << cluster.monitor().violations().summary();
  configsvc::GlobalConfig cfg;
  cfg.epoch = 3;
  cfg.members[0] = {leader, skipped};
  cfg.leaders[0] = leader;
  cluster.net().send_msg(leader, skipped, ConfigPrepare{3, cfg});
  EXPECT_TRUE(mentions(cluster.monitor(), "Invariant5"))
      << cluster.monitor().violations().summary();
}

/// Stages epoch 2 of shard 0, with members {leader, r101} and led by
/// `leader`, at `target` (Fig. 8's CONFIG_PREPARE), then sends it
/// `install`, as if the reconfigurer or the new leader had.
template <typename Install>
void install_at(Cluster& cluster, Replica& target, ProcessId leader, Install install) {
  configsvc::GlobalConfig cfg;
  cfg.epoch = 2;
  cfg.members[0] = {leader, cluster.replica(0, 1).id()};
  cfg.leaders[0] = leader;
  cluster.net().send_msg(leader, target.id(), ConfigPrepare{2, cfg});
  cluster.net().send_msg(leader, target.id(), install);
  // Bounded: the installed replica keeps re-sending CONNECT to members
  // that never move to epoch 2.
  cluster.sim().run_until(cluster.sim().now() + 10);
}

/// The write of `e`, slot k of some log, at epoch 1: forged into another
/// memory, it lands what that log holds.
RAccept write_of(const commit::LogEntry& e, Slot k) {
  RAccept a;
  a.epoch = 1;
  a.shard = 0;
  a.slot = k;
  a.txn = e.txn;
  a.payload = e.payload;
  a.vote = e.vote;
  a.meta = e.meta;
  a.prepare_ts = e.prepare_ts;
  return a;
}

/// Keeps every one-sided write, so what each carried outlives its landing.
struct WriteLog : FabricObserver {
  void on_write(Time, ProcessId, ProcessId, const sim::AnyMessage& m) override {
    writes.push_back(m);
  }
  std::vector<sim::AnyMessage> writes;
};

/// One shard {r100 leader, r101} plus a spare; t1 commits at epoch 1 and
/// t2, which conflicts with it, aborts.  r101 coordinates both, so its
/// writes to itself land at once.
struct ClusterRun {
  ClusterRun()
      : cluster({.seed = 7, .num_shards = 1, .shard_size = 2, .spares_per_shard = 1}),
        client(cluster.add_client()) {
    cluster.fabric().add_observer(&written);
    t1 = cluster.next_txn_id();
    t2 = cluster.next_txn_id();
    client.certify_colocated(cluster.replica(0, 1), t1, one_object(0));
    client.certify_colocated(cluster.replica(0, 1), t2, one_object(0));
    cluster.sim().run();
    committed = client.decision(t1) == Decision::kCommit &&
                client.decision(t2) == Decision::kAbort;
  }

  /// The follower installs epoch 2 with `log` as the transferred state.
  void install_at_follower(const commit::ReplicaLog& log) {
    install_at(cluster, cluster.replica(0, 1), cluster.replica(0, 0).id(), RNewState{2, log});
  }

  Cluster cluster;
  Client& client;
  WriteLog written;
  TxnId t1 = 0, t2 = 0;
  bool committed = false;
};

/// One shard {r100 leader, r101} plus a spare, where r100's one-sided
/// writes to r101 take 1,000 ticks.  r100 coordinates t1, which it puts in
/// slot 1; r101 coordinates t2, in slot 2.  The run stops once t2 is
/// decided, with r101's slot 1 still a hole.
struct SlowFirstWrite {
  SlowFirstWrite()
      : cluster({.seed = 7, .num_shards = 1, .shard_size = 2, .spares_per_shard = 1,
                 .fabric_delay = [](ProcessId from, ProcessId to) -> Duration {
                   return from == 100 && to == 101 ? 1000 : 0;
                 }}),
        client(cluster.add_client()) {
    t1 = cluster.next_txn_id();
    t2 = cluster.next_txn_id();
    client.certify_colocated(cluster.replica(0, 0), t1, one_object(0));
    cluster.sim().run_until(cluster.sim().now() + 5);
    client.certify_colocated(cluster.replica(0, 1), t2, one_object(1));
    t2_decided = cluster.sim().run_until_pred([&] { return client.decided(t2); });
  }

  Cluster cluster;
  Client& client;
  TxnId t1 = 0, t2 = 0;
  bool t2_decided = false;
};

TEST(RdmaInvariantSensitivity, Invariant1_FollowerSlotBelowRewrittenBeforeTheLanding) {
  ClusterRun run;
  ASSERT_TRUE(run.committed);
  Replica& leader = run.cluster.replica(0, 0);
  Replica& follower = run.cluster.replica(0, 1);
  // A forged write puts another transaction in r101's slot 1 ...
  run.cluster.fabric().send_rdma(leader.id(), follower.id(),
                                 sim::AnyMessage(raccept(1, 1, 999)));
  run.cluster.sim().run();
  ASSERT_EQ(follower.log().find(1)->txn, 999u);
  EXPECT_FALSE(mentions(run.cluster.monitor(), "Invariant1"));
  // ... before the landing of t3's write, at slot 3.
  TxnId t3 = run.cluster.next_txn_id();
  run.client.certify_colocated(follower, t3, one_object(5));
  run.cluster.sim().run();
  EXPECT_TRUE(mentions(run.cluster.monitor(), "Invariant1"))
      << run.cluster.monitor().violations().summary();
}

TEST(RdmaInvariantSensitivity, Invariant1_HolesBelowTheSlotReportNothing) {
  SlowFirstWrite run;
  ASSERT_TRUE(run.t2_decided);
  const commit::LogEntry* slot1 = run.cluster.replica(0, 1).log().find(1);
  ASSERT_TRUE(slot1 == nullptr || !slot1->filled());  // t1's write is in flight
  EXPECT_TRUE(run.cluster.monitor().violations().empty())
      << run.cluster.monitor().violations().summary();
  run.cluster.sim().run();
  EXPECT_TRUE(run.client.decided(run.t1));
  EXPECT_TRUE(run.cluster.monitor().violations().empty())
      << run.cluster.monitor().violations().summary();
}

TEST(RdmaInvariantSensitivity, Invariant2_InstalledLogDiffersBelowAcceptedSlot) {
  // Only t2's slot 2 is fully accepted.  r101 then installs epoch 2 from an
  // RNEW_STATE that keeps slot 2 as the leader has it but holds another
  // transaction in slot 1, which the leader had filled at slot 2's
  // PREPARE_ACK: slot 2 persists, its prefix does not.
  SlowFirstWrite run;
  ASSERT_TRUE(run.t2_decided);
  commit::ReplicaLog log = run.cluster.replica(0, 0).log();
  log.at(1).txn = 999;
  log.at(1).payload = one_object(8);
  install_at(run.cluster, run.cluster.replica(0, 1), run.cluster.replica(0, 0).id(),
             RNewState{2, log});
  ASSERT_EQ(run.cluster.replica(0, 1).epoch(), 2u);
  EXPECT_TRUE(mentions(run.cluster.monitor(), "Invariant2"))
      << run.cluster.monitor().violations().summary();
  EXPECT_FALSE(mentions(run.cluster.monitor(), "Invariant1"))
      << run.cluster.monitor().violations().summary();
}

TEST(RdmaInvariantSensitivity, Invariant1_EachAcceptanceJudgedAgainstTheLeaderLogItSaw) {
  ClusterRun run;
  ASSERT_TRUE(run.committed);
  Replica& leader = run.cluster.replica(0, 0);
  Replica& follower = run.cluster.replica(0, 1);
  // Between the PREPARE_ACKs of slot 2 and of slot 3, a write forged into
  // the leader's own memory rewrites its slot 1.
  run.cluster.fabric().send_rdma(follower.id(), leader.id(),
                                 sim::AnyMessage(raccept(1, 1, 999)));
  run.cluster.sim().run();
  ASSERT_EQ(leader.log().find(1)->txn, 999u);
  // Slots 1 and 2 land again at r101, unchanged.  Slot 2's acceptance saw
  // t1 in the leader's slot 1, as r101 holds it: nothing to report.
  for (Slot k : {Slot{1}, Slot{2}}) {
    run.cluster.fabric().send_rdma(leader.id(), follower.id(),
                                   sim::AnyMessage(write_of(*follower.log().find(k), k)));
    run.cluster.sim().run();
  }
  EXPECT_FALSE(mentions(run.cluster.monitor(), "Invariant1"))
      << run.cluster.monitor().violations().summary();
  // Slot 3's acceptance sees 999 there, which r101 does not hold.
  TxnId t3 = run.cluster.next_txn_id();
  run.client.certify_colocated(follower, t3, one_object(5));
  run.cluster.sim().run();
  EXPECT_TRUE(mentions(run.cluster.monitor(), "Invariant1"))
      << run.cluster.monitor().violations().summary();
}

TEST(RdmaInvariantSensitivity, ForgedRewriteChangesOnlyTheMemoryItLandsIn) {
  ClusterRun run;
  ASSERT_TRUE(run.committed);
  Replica& leader = run.cluster.replica(0, 0);
  Replica& follower = run.cluster.replica(0, 1);
  // t1's write of slot 1 as it travelled to r101; the envelope holds the
  // objects it carried.
  sim::AnyMessage sent;
  for (const sim::AnyMessage& m : run.written.writes) {
    const RAccept* a = m.as<RAccept>();
    if (a != nullptr && a->slot == 1) sent = m;
  }
  ASSERT_TRUE(sent.is<RAccept>());
  const commit::LogEntry before = *follower.log().find(1);
  // A write forged into the leader's memory rewrites its slot 1 ...
  run.cluster.fabric().send_rdma(follower.id(), leader.id(),
                                 sim::AnyMessage(raccept(1, 1, 999)));
  run.cluster.sim().run();
  ASSERT_EQ(leader.log().find(1)->txn, 999u);
  // ... and neither the write in flight nor r101's log.
  EXPECT_EQ(sent.as<RAccept>()->txn, run.t1);
  EXPECT_EQ(*sent.as<RAccept>()->payload, one_object(0));
  const commit::LogEntry& after = *follower.log().find(1);
  EXPECT_EQ(after.txn, run.t1);
  EXPECT_EQ(after.payload, before.payload);
  EXPECT_EQ(after.meta, before.meta);
}

TEST(RdmaInvariantSensitivity, Invariant1_InstallRechecksTheWholePrefix) {
  // r101 acknowledged slots 1 and 2 at epoch 1, then installs epoch 2 from
  // a state whose slot 1 holds another transaction.  A write of epoch 1
  // that lands afterwards acknowledges a log that no longer matches the
  // leader's below the written slot.
  ClusterRun run;
  ASSERT_TRUE(run.committed);
  Replica& leader = run.cluster.replica(0, 0);
  Replica& follower = run.cluster.replica(0, 1);
  commit::ReplicaLog log = leader.log();
  log.at(1).txn = 999;
  log.at(1).payload = one_object(8);
  run.install_at_follower(log);
  ASSERT_EQ(follower.epoch(), 2u);
  ASSERT_EQ(leader.epoch(), 1u);
  EXPECT_FALSE(mentions(run.cluster.monitor(), "Invariant1"))
      << run.cluster.monitor().violations().summary();
  TxnId t3 = run.cluster.next_txn_id();
  run.client.certify_colocated(leader, t3, one_object(5));
  run.cluster.sim().run_until(run.cluster.sim().now() + 10);
  ASSERT_EQ(follower.log().find(3)->txn, t3);
  EXPECT_TRUE(mentions(run.cluster.monitor(), "Invariant1"))
      << run.cluster.monitor().violations().summary();
}

TEST(RdmaInvariantSensitivity, Invariant12b_CommitDecisionOntoAbortVote) {
  ClusterRun run;
  ASSERT_TRUE(run.committed);
  Replica& leader = run.cluster.replica(0, 0);
  Slot k = leader.log().slot_of(run.t2);
  ASSERT_EQ(leader.log().find(k)->vote, Decision::kAbort);
  EXPECT_TRUE(run.cluster.monitor().violations().empty());

  // The follower writes a forged commit decision into the leader's memory.
  RDecision forged{k, run.t2, Decision::kCommit};
  run.cluster.fabric().send_rdma(run.cluster.replica(0, 1).id(), leader.id(),
                                 sim::AnyMessage(forged));
  run.cluster.sim().run();
  EXPECT_TRUE(mentions(run.cluster.monitor(), "Invariant12b"))
      << run.cluster.monitor().violations().summary();
}

TEST(RdmaInvariantSensitivity, Invariant2_AcceptedSlotLostAtInstall) {
  ClusterRun run;
  ASSERT_TRUE(run.committed);
  ASSERT_TRUE(run.cluster.monitor().violations().empty());
  run.install_at_follower(commit::ReplicaLog{});  // t1's accepted slot is gone
  EXPECT_EQ(run.cluster.replica(0, 1).epoch(), 2u);
  EXPECT_TRUE(mentions(run.cluster.monitor(), "Invariant2"))
      << run.cluster.monitor().violations().summary();
}

TEST(RdmaInvariantSensitivity, Invariant2_AcceptedSlotLostAtTakeover) {
  ClusterRun run;
  ASSERT_TRUE(run.committed);
  // The spare, whose log is empty, takes over as epoch 2's leader.
  Replica& spare = run.cluster.replica(0, 2);
  install_at(run.cluster, spare, spare.id(), RNewConfig{2});
  EXPECT_EQ(spare.status(), Status::kLeader);
  EXPECT_TRUE(mentions(run.cluster.monitor(), "Invariant2"))
      << run.cluster.monitor().violations().summary();
}

TEST(RdmaInvariantSensitivity, Invariant10_TxnInTwoSlotsAtInstall) {
  ClusterRun run;
  ASSERT_TRUE(run.committed);
  commit::ReplicaLog log = run.cluster.replica(0, 0).log();
  commit::LogEntry copy = *log.find(1);
  log.at(log.size() + 1) = copy;  // slot 1's transaction again
  run.install_at_follower(log);
  EXPECT_TRUE(mentions(run.cluster.monitor(), "Invariant10"))
      << run.cluster.monitor().violations().summary();
}

}  // namespace
}  // namespace ratc::rdma
