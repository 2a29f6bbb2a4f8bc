// RDMA fabric model and failure-free behaviour of the RDMA-based protocol
// (Fig. 7), including the latency property that motivates it: coordinators
// act on NIC acknowledgements, so follower CPUs are off the critical path.
#include <gtest/gtest.h>

#include "checker/linearization.h"
#include "rdma/cluster.h"

namespace ratc::rdma {
namespace {

using commit::Client;
using tcs::Decision;
using tcs::Payload;

Payload make_payload(std::vector<ObjectId> reads, std::vector<ObjectId> writes,
                     Version read_version, Version commit_version) {
  Payload p;
  for (ObjectId o : reads) p.reads.push_back({o, read_version});
  for (ObjectId o : writes) p.writes.push_back({o, static_cast<Value>(o)});
  p.commit_version = commit_version;
  return p;
}

// --- Fabric model -----------------------------------------------------------

struct Note {
  static constexpr const char* kName = "NOTE";
  int value = 0;
};

struct FabricHarness {
  explicit FabricHarness(std::uint64_t seed) : sim(seed), fabric(sim) {}

  void attach(ProcessId p) {
    fabric.attach(
        p,
        [this, p](ProcessId from, const sim::AnyMessage& m) {
          delivered[p].push_back({from, m.as<Note>()->value});
        },
        [this, p](const RdmaAck& ack) { acks[p].push_back(ack.dest); });
  }

  sim::Simulator sim;
  Fabric fabric;
  std::map<ProcessId, std::vector<std::pair<ProcessId, int>>> delivered;
  std::map<ProcessId, std::vector<ProcessId>> acks;
};

TEST(Fabric, WriteLandsAcksAndDelivers) {
  FabricHarness h(1);
  h.attach(1);
  h.attach(2);
  h.fabric.open(2, 1);  // 2 grants 1
  h.fabric.send_rdma(1, 2, sim::AnyMessage(Note{7}));
  h.sim.run();
  ASSERT_EQ(h.acks[1].size(), 1u);     // sender NIC completion
  EXPECT_EQ(h.acks[1][0], 2u);
  ASSERT_EQ(h.delivered[2].size(), 1u);  // receiver CPU poll
  EXPECT_EQ(h.delivered[2][0].second, 7);
  EXPECT_EQ(h.fabric.writes_rejected(), 0u);
}

TEST(Fabric, AckPrecedesDelivery) {
  // The NIC ack is generated without receiver CPU involvement: the sender
  // learns of the write before (or at the same tick as) the receiver's CPU.
  FabricHarness h(2);
  h.attach(1);
  h.attach(2);
  h.fabric.open(2, 1);
  Time ack_time = 0, deliver_time = 0;
  h.fabric.attach(
      1, [](ProcessId, const sim::AnyMessage&) {},
      [&](const RdmaAck&) { ack_time = h.sim.now(); });
  h.fabric.attach(
      2,
      [&](ProcessId, const sim::AnyMessage&) { deliver_time = h.sim.now(); },
      [](const RdmaAck&) {});
  h.fabric.send_rdma(1, 2, sim::AnyMessage(Note{1}));
  h.sim.run();
  EXPECT_GT(ack_time, 0u);
  EXPECT_GT(deliver_time, 0u);
  EXPECT_LE(ack_time, deliver_time);
}

TEST(Fabric, ClosedConnectionRejectsWrite) {
  FabricHarness h(3);
  h.attach(1);
  h.attach(2);
  h.fabric.send_rdma(1, 2, sim::AnyMessage(Note{1}));  // never opened
  h.sim.run();
  EXPECT_TRUE(h.acks[1].empty());
  EXPECT_TRUE(h.delivered[2].empty());
  EXPECT_EQ(h.fabric.writes_rejected(), 1u);
}

TEST(Fabric, CloseInvalidatesInFlightWrites) {
  FabricHarness h(4);
  h.attach(1);
  h.attach(2);
  h.fabric.open(2, 1);
  h.fabric.send_rdma(1, 2, sim::AnyMessage(Note{1}));
  h.fabric.close(2, 1);  // before the write lands
  h.sim.run();
  EXPECT_TRUE(h.acks[1].empty());
  EXPECT_EQ(h.fabric.writes_rejected(), 1u);
}

TEST(Fabric, ReopenDoesNotResurrectOldWrites) {
  // A write issued against a closed-then-reopened connection still fails:
  // queue-pair incarnations (what makes Fig. 4b sound).
  FabricHarness h(5);
  h.attach(1);
  h.attach(2);
  h.fabric.open(2, 1);
  h.fabric.send_rdma(1, 2, sim::AnyMessage(Note{1}));
  h.fabric.close(2, 1);
  h.fabric.open(2, 1);  // reopened before landing
  h.sim.run();
  EXPECT_TRUE(h.acks[1].empty());
  EXPECT_EQ(h.fabric.writes_rejected(), 1u);
  // A fresh write on the new incarnation works.
  h.fabric.send_rdma(1, 2, sim::AnyMessage(Note{2}));
  h.sim.run();
  EXPECT_EQ(h.acks[1].size(), 1u);
}

TEST(Fabric, FlushDeliversAckedMessagesSynchronously) {
  FabricHarness h(6);
  h.attach(1);
  h.attach(2);
  h.fabric.open(2, 1);
  h.fabric.send_rdma(1, 2, sim::AnyMessage(Note{1}));
  h.fabric.send_rdma(1, 2, sim::AnyMessage(Note{2}));
  // Run just until the writes landed (ack scheduled) but not polled.
  h.sim.run_until(1);
  EXPECT_TRUE(h.delivered[2].empty());
  h.fabric.flush(2);
  ASSERT_EQ(h.delivered[2].size(), 2u);
  EXPECT_EQ(h.delivered[2][0].second, 1);
  EXPECT_EQ(h.delivered[2][1].second, 2);
  // The later poll events find an empty buffer; no duplicates.
  h.sim.run();
  EXPECT_EQ(h.delivered[2].size(), 2u);
}

TEST(Fabric, FifoPerChannel) {
  FabricHarness h(7);
  h.attach(1);
  h.attach(2);
  h.fabric.open(2, 1);
  for (int i = 0; i < 50; ++i) h.fabric.send_rdma(1, 2, sim::AnyMessage(Note{i}));
  h.sim.run();
  ASSERT_EQ(h.delivered[2].size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(h.delivered[2][static_cast<size_t>(i)].second, i);
}

TEST(Fabric, CrashedReceiverRejects) {
  FabricHarness h(8);
  h.attach(1);
  h.attach(2);
  h.fabric.open(2, 1);
  h.sim.crash(2);
  h.fabric.send_rdma(1, 2, sim::AnyMessage(Note{1}));
  h.sim.run();
  EXPECT_TRUE(h.acks[1].empty());
  EXPECT_EQ(h.fabric.writes_rejected(), 1u);
}

// --- RDMA protocol, failure-free ------------------------------------------------

TEST(RdmaProtocol, SingleShardCommit) {
  Cluster cluster({.seed = 1, .num_shards = 1, .shard_size = 2});
  Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t, make_payload({0}, {0}, 0, 1));
  cluster.sim().run();
  EXPECT_EQ(client.decision(t), Decision::kCommit);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(RdmaProtocol, CrossShardCommitReachesAllReplicas) {
  Cluster cluster({.seed = 2, .num_shards = 3, .shard_size = 2});
  Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t,
                           make_payload({0, 1, 2}, {0, 1}, 0, 1));
  cluster.sim().run();
  ASSERT_EQ(client.decision(t), Decision::kCommit);
  for (ShardId s = 0; s < 3; ++s) {
    for (std::size_t i = 0; i < 2; ++i) {
      const Replica& r = cluster.replica(s, i);
      Slot k = r.log().slot_of(t);
      ASSERT_NE(k, kNoSlot);
      EXPECT_EQ(r.log().find(k)->dec, Decision::kCommit);
    }
  }
  EXPECT_EQ(cluster.verify(), "");
}

TEST(RdmaProtocol, FourDelayLatencyLikeMessagePassing) {
  // The coordinator acts on the NIC ack: same 4-delay critical path as the
  // message-passing protocol for a co-located client.
  Cluster cluster({.seed = 3, .num_shards = 2, .shard_size = 2});
  Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t, make_payload({0, 1}, {0}, 0, 1));
  cluster.sim().run();
  ASSERT_TRUE(client.decided(t));
  EXPECT_EQ(client.latency(t), 4u);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(RdmaProtocol, ConflictsAbort) {
  Cluster cluster({.seed = 4, .num_shards = 1, .shard_size = 2});
  Client& client = cluster.add_client();
  TxnId t1 = cluster.next_txn_id(), t2 = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t1, make_payload({0}, {0}, 0, 1));
  client.certify_colocated(cluster.replica(0, 1), t2, make_payload({0}, {0}, 0, 1));
  cluster.sim().run();
  EXPECT_EQ(client.decision(t1), Decision::kCommit);
  EXPECT_EQ(client.decision(t2), Decision::kAbort);
  auto lin = checker::check_linearization(cluster.history(), cluster.certifier());
  EXPECT_TRUE(lin.ok) << lin.error;
}

TEST(RdmaProtocol, ManyTransactions) {
  Cluster cluster({.seed = 5, .num_shards = 3, .shard_size = 2});
  Client& client = cluster.add_client();
  std::vector<TxnId> txns;
  for (int i = 0; i < 50; ++i) {
    TxnId t = cluster.next_txn_id();
    txns.push_back(t);
    ObjectId a = static_cast<ObjectId>(3 * i), b = static_cast<ObjectId>(3 * i + 1);
    client.certify_colocated(cluster.replica(static_cast<ShardId>(i % 3), 1), t,
                             make_payload({a, b}, {a}, 0, 1));
  }
  cluster.sim().run();
  for (TxnId t : txns) EXPECT_EQ(client.decision(t), Decision::kCommit);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(RdmaProtocol, GlobalReconfigurationRestoresService) {
  Cluster cluster({.seed = 6, .num_shards = 2, .shard_size = 2});
  Client& client = cluster.add_client();
  TxnId t1 = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t1, make_payload({0, 1}, {0}, 0, 1));
  cluster.sim().run();
  ASSERT_EQ(client.decision(t1), Decision::kCommit);

  // Kill shard 0's leader; the surviving follower reconfigures GLOBALLY.
  cluster.crash(cluster.leader_of(0));
  cluster.replica(0, 1).reconfigure();
  ASSERT_TRUE(cluster.await_active_epoch(2));

  // All shards moved to epoch 2 (the paper's "price of RDMA": the whole
  // system reconfigures, not just the affected shard).
  for (ShardId s = 0; s < 2; ++s) {
    configsvc::ShardConfig cfg = cluster.current_config(s);
    EXPECT_EQ(cfg.epoch, 2u) << "shard " << s;
    for (ProcessId m : cfg.members) {
      EXPECT_EQ(cluster.replica_by_pid(m).epoch(), 2u);
    }
  }

  // The committed transaction survived; new certifications work.
  Replica& new_leader0 = cluster.replica_by_pid(cluster.leader_of(0));
  Slot k = new_leader0.log().slot_of(t1);
  ASSERT_NE(k, kNoSlot);
  EXPECT_EQ(new_leader0.log().find(k)->dec, Decision::kCommit);

  TxnId t2 = cluster.next_txn_id();
  client.certify_colocated(cluster.replica_by_pid(cluster.leader_of(1)), t2,
                           make_payload({2, 3}, {2}, 0, 1));
  cluster.sim().run();
  EXPECT_EQ(client.decision(t2), Decision::kCommit);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(RdmaProtocol, RetryAfterCoordinatorCrashAndReconfiguration) {
  Cluster cluster({.seed = 7, .num_shards = 2, .shard_size = 2});
  Client& client = cluster.add_client();
  // Shard 1's follower coordinates a transaction and dies mid-flight.
  Replica& doomed = cluster.replica(1, 1);
  TxnId t = cluster.next_txn_id();
  client.certify_remote(doomed.id(), t, make_payload({0, 1}, {0, 1}, 0, 1));
  cluster.sim().run_until(2);  // leaders prepared
  ASSERT_NE(cluster.replica(0, 0).log().slot_of(t), kNoSlot);
  cluster.crash(doomed.id());
  cluster.sim().run();
  EXPECT_FALSE(client.decided(t));

  // The dead process was also a shard member, so the system reconfigures
  // (globally) before the transaction can be recovered.
  cluster.replica(1, 0).reconfigure();
  ASSERT_TRUE(cluster.await_active_epoch(2));

  // Any replica that has t prepared can finish the protocol.
  Replica& leader0 = cluster.replica_by_pid(cluster.leader_of(0));
  Slot k = leader0.log().slot_of(t);
  ASSERT_NE(k, kNoSlot);
  leader0.retry(k);
  cluster.sim().run();
  ASSERT_TRUE(client.decided(t));
  EXPECT_EQ(cluster.verify(), "");
}

}  // namespace
}  // namespace ratc::rdma
