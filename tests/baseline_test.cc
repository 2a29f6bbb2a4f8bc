// Baseline 2PC-over-Paxos TCS: correctness and the 7-message-delay latency
// the paper's introduction cites for the vanilla scheme.
#include <gtest/gtest.h>

#include <set>

#include "baseline/cluster.h"
#include "checker/linearization.h"

namespace ratc::baseline {
namespace {

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

TEST(Baseline, SingleShardCommit) {
  BaselineCluster cluster({.seed = 1, .num_shards = 1, .shard_size = 3});
  commit::Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  Payload p = make_payload({0}, {0}, 0, 1);
  client.certify_remote(cluster.coordinator_for(p), t, p);
  cluster.sim().run();
  EXPECT_EQ(client.decision(t), Decision::kCommit);
}

TEST(Baseline, CrossShardCommitWithAllReplicasApplying) {
  BaselineCluster cluster({.seed = 2, .num_shards = 2, .shard_size = 3});
  commit::Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  Payload p = make_payload({0, 1}, {0, 1}, 0, 1);
  client.certify_remote(cluster.coordinator_for(p), t, p);
  cluster.sim().run();
  ASSERT_EQ(client.decision(t), Decision::kCommit);
  // Every replica of both shards applied the decision (state machine).
  for (ShardId s = 0; s < 2; ++s) {
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(cluster.server(s, i).has_decided(t)) << "s" << s << " idx " << i;
      EXPECT_EQ(cluster.server(s, i).decision_of(t), Decision::kCommit);
    }
  }
}

TEST(Baseline, ConflictAborts) {
  BaselineCluster cluster({.seed = 3, .num_shards = 1, .shard_size = 3});
  commit::Client& client = cluster.add_client();
  TxnId t1 = cluster.next_txn_id(), t2 = cluster.next_txn_id();
  Payload p1 = make_payload({0}, {0}, 0, 1);
  Payload p2 = make_payload({0}, {0}, 0, 1);
  client.certify_remote(cluster.coordinator_for(p1), t1, p1);
  client.certify_remote(cluster.coordinator_for(p2), t2, p2);
  cluster.sim().run();
  int commits = (client.decision(t1) == Decision::kCommit ? 1 : 0) +
                (client.decision(t2) == Decision::kCommit ? 1 : 0);
  EXPECT_EQ(commits, 1);
  auto lin = checker::check_linearization(cluster.history(), cluster.certifier());
  EXPECT_TRUE(lin.ok) << lin.error;
}

TEST(Baseline, CrossShardLatencyIsSevenDelaysPlusSubmission) {
  // Paper Sec. 1/3: the vanilla scheme takes 7 message delays to learn a
  // decision (from the coordinator; +1 for the client's submission hop).
  BaselineCluster cluster({.seed = 4, .num_shards = 2, .shard_size = 3});
  commit::Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  Payload p = make_payload({0, 1}, {0}, 0, 1);
  client.certify_remote(cluster.coordinator_for(p), t, p);
  cluster.sim().run();
  ASSERT_TRUE(client.decided(t));
  EXPECT_EQ(client.latency(t), 8u);  // 1 submit + 7 protocol
}

TEST(Baseline, SingleShardFastPathStillNeedsDurableDecision) {
  // Even single-shard transactions pay two Paxos round trips (prepare +
  // decision) before the reply: 4 delays + reply, +1 submit.
  BaselineCluster cluster({.seed = 5, .num_shards = 1, .shard_size = 3});
  commit::Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  Payload p = make_payload({0}, {0}, 0, 1);
  client.certify_remote(cluster.coordinator_for(p), t, p);
  cluster.sim().run();
  ASSERT_TRUE(client.decided(t));
  EXPECT_EQ(client.latency(t), 6u);  // submit + 2x(phase2a+phase2b) + reply
}

TEST(Baseline, PaxosLeaderCarriesReplicationLoad) {
  // Unlike the paper's protocol (coordinator ships ACCEPTs), the baseline
  // leader relays every replication round: 2 Phase2a fan-outs per
  // transaction it hosts.
  BaselineCluster cluster({.seed = 6, .num_shards = 1, .shard_size = 3});
  commit::Client& client = cluster.add_client();
  const int kTxns = 20;
  for (int i = 0; i < kTxns; ++i) {
    TxnId t = cluster.next_txn_id();
    Payload p = make_payload({static_cast<ObjectId>(i)}, {static_cast<ObjectId>(i)},
                             0, 1);
    client.certify_remote(cluster.coordinator_for(p), t, p);
  }
  cluster.sim().run();
  // The shard's Paxos leader sent 2 commands * 2 followers Phase2a messages
  // per transaction.
  const auto& t = cluster.net().traffic(cluster.server(0, 0).id());
  EXPECT_GE(t.sent_by_type.at("PAXOS_2A"), 2u * 2u * kTxns);
}

TEST(Baseline, EveryTracedPidIsAServerOrAClient) {
  // Each server hosts its shard's Paxos member, so the wire carries server
  // and client pids only, and one crash(pid) takes a whole member down: the
  // election after it runs among the surviving servers' pids.
  BaselineCluster cluster(
      {.seed = 11, .num_shards = 2, .shard_size = 3, .enable_tracer = true});
  commit::Client& client = cluster.add_client();
  auto commit_across_shards = [&](ObjectId a, ObjectId b) {
    TxnId t = cluster.next_txn_id();
    Payload p = make_payload({a, b}, {a, b}, 0, 1);
    client.certify_remote(cluster.coordinator_for(p), t, p);
    cluster.sim().run();
    return client.decision(t);
  };
  ASSERT_EQ(commit_across_shards(0, 1), Decision::kCommit);

  cluster.crash(cluster.leader_server(0));
  cluster.elect_leader(0, cluster.shard_servers(0)[1]);
  ASSERT_EQ(commit_across_shards(2, 3), Decision::kCommit);
  ASSERT_TRUE(cluster.tracer().delivered("PAXOS_1B"));

  std::set<ProcessId> known = {client.id()};
  for (ShardId s = 0; s < cluster.num_shards(); ++s) {
    for (ProcessId pid : cluster.shard_servers(s)) known.insert(pid);
  }
  for (const sim::TraceEntry& e : cluster.tracer().entries()) {
    EXPECT_EQ(known.count(e.from), 1u) << "t=" << e.time << " " << e.type << " from p"
                                       << e.from;
    EXPECT_EQ(known.count(e.to), 1u) << "t=" << e.time << " " << e.type << " to p" << e.to;
  }
}

TEST(Baseline, ManyTransactionsAcrossShards) {
  BaselineCluster cluster({.seed = 7, .num_shards = 3, .shard_size = 3});
  commit::Client& client = cluster.add_client();
  std::vector<TxnId> txns;
  for (int i = 0; i < 60; ++i) {
    TxnId t = cluster.next_txn_id();
    txns.push_back(t);
    ObjectId a = static_cast<ObjectId>(3 * i);
    ObjectId b = static_cast<ObjectId>(3 * i + 1);
    Payload p = make_payload({a, b}, {a}, 0, 1);
    client.certify_remote(cluster.coordinator_for(p), t, p);
  }
  cluster.sim().run();
  for (TxnId t : txns) EXPECT_EQ(client.decision(t), Decision::kCommit);
  auto lin = checker::check_linearization(cluster.history(), cluster.certifier());
  EXPECT_TRUE(lin.ok) << lin.error;
}

TEST(Baseline, SurvivesMinorityFailureViaElection) {
  BaselineCluster cluster({.seed = 8, .num_shards = 2, .shard_size = 3});
  commit::Client& client = cluster.add_client();
  TxnId t1 = cluster.next_txn_id();
  Payload p1 = make_payload({0, 1}, {0}, 0, 1);
  client.certify_remote(cluster.coordinator_for(p1), t1, p1);
  cluster.sim().run();
  ASSERT_EQ(client.decision(t1), Decision::kCommit);

  // Crash shard 0's leader; replica 1 takes over (2f+1 = 3, f = 1).
  cluster.fail_over(0, 1);
  cluster.sim().run();

  TxnId t2 = cluster.next_txn_id();
  Payload p2 = make_payload({2, 3}, {2}, 0, 1);
  client.certify_remote(cluster.coordinator_for(p2), t2, p2);
  cluster.sim().run();
  EXPECT_EQ(client.decision(t2), Decision::kCommit);
  // The new leader's state machine retains t1's commit.
  EXPECT_TRUE(cluster.server(0, 1).has_decided(t1));
}

TEST(Baseline, SnapshotIsolationVariant) {
  BaselineCluster cluster(
      {.seed = 9, .num_shards = 1, .shard_size = 3, .isolation = "snapshot-isolation"});
  commit::Client& client = cluster.add_client();
  TxnId t1 = cluster.next_txn_id(), t2 = cluster.next_txn_id();
  // Write skew commits under SI.
  Payload p1 = make_payload({0, 2}, {0}, 0, 1);
  Payload p2 = make_payload({0, 2}, {2}, 0, 1);
  client.certify_remote(cluster.coordinator_for(p1), t1, p1);
  client.certify_remote(cluster.coordinator_for(p2), t2, p2);
  cluster.sim().run();
  EXPECT_EQ(client.decision(t1), Decision::kCommit);
  EXPECT_EQ(client.decision(t2), Decision::kCommit);
}

}  // namespace
}  // namespace ratc::baseline
