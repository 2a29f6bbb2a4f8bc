// Sensitivity tests for the invariants the rdma stack checks through the
// shared monitor (commit/monitor.h): each must fire on a violating input
// that travels the rdma path — a one-sided write through the fabric tap, a
// configuration through the network tap, or a forged write or state
// transfer in a running rdma::Cluster.  commit_monitor_test covers the
// message stack.
#include <gtest/gtest.h>

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

bool mentions(const commit::Monitor& m, const std::string& inv) {
  return m.violations().summary().find(inv) != std::string::npos;
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

  /// Process `p` accepts one-sided writes from `writer`.
  void accept_writes(ProcessId p, ProcessId writer) {
    fabric.attach(p, [](ProcessId, const sim::AnyMessage&) {}, [](const RdmaAck&) {});
    fabric.open(p, writer);
  }

  void send_config(Epoch epoch, std::vector<ProcessId> members) {
    configsvc::GlobalConfig cfg;
    cfg.epoch = epoch;
    cfg.members[0] = members;
    cfg.leaders[0] = members.front();
    net.send_msg(members.front(), members.back(), ConfigPrepare{epoch, cfg});
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
  // r101 leaves at epoch 2, whose slot 1 is then fully accepted; a later
  // configuration that brings r101 back violates Inv 5.
  TapHarness h(3);
  h.monitor.register_config(0, {.epoch = 1, .members = {100, 101}, .leader = 100});
  h.send_config(2, {100, 150});
  h.accept_writes(150, 100);
  h.fabric.send_rdma(100, 150, sim::AnyMessage(raccept(2, 1, 10)));
  h.sim.run();  // the write lands: r150 was epoch 2's only follower
  EXPECT_TRUE(h.monitor.violations().empty()) << h.monitor.violations().summary();
  h.send_config(3, {100, 101});
  EXPECT_TRUE(mentions(h.monitor, "Invariant5")) << h.monitor.violations().summary();
}

/// One shard of two replicas plus a spare; t1 commits at epoch 1 and t2,
/// which conflicts with it, aborts.
struct ClusterRun {
  ClusterRun() : cluster({.seed = 7, .num_shards = 1, .shard_size = 2, .spares_per_shard = 1}) {
    Client& client = cluster.add_client();
    t1 = cluster.next_txn_id();
    t2 = cluster.next_txn_id();
    client.certify_colocated(cluster.replica(0, 1), t1, one_object(0));
    client.certify_colocated(cluster.replica(0, 1), t2, one_object(0));
    cluster.sim().run();
    committed = client.decision(t1) == Decision::kCommit &&
                client.decision(t2) == Decision::kAbort;
  }

  /// Stages epoch 2 of shard 0, led by `leader`, at `target` (Fig. 8's
  /// CONFIG_PREPARE), then sends it `install`, as if the reconfigurer or the
  /// new leader had.
  template <typename Install>
  void install_at(Replica& target, ProcessId leader, Install install) {
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
  /// The follower installs epoch 2 with `log` as the transferred state.
  void install_at_follower(const commit::ReplicaLog& log) {
    install_at(cluster.replica(0, 1), cluster.replica(0, 0).id(), RNewState{2, log});
  }

  Cluster cluster;
  TxnId t1 = 0, t2 = 0;
  bool committed = false;
};

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
  run.install_at(spare, spare.id(), RNewConfig{2});
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
