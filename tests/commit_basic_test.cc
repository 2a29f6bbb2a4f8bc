// Failure-free behaviour of the atomic commit protocol (Fig. 1, Fig. 2a):
// certification, votes, decisions, message flow, and latency claims.
#include <gtest/gtest.h>

#include "checker/linearization.h"
#include "commit/cluster.h"

namespace ratc::commit {
namespace {

using tcs::Decision;
using tcs::Payload;

/// Payload reading `objs` at version `v` and writing those in `writes`.
Payload make_payload(std::vector<ObjectId> reads, std::vector<ObjectId> writes,
                     Version read_version, Version commit_version) {
  Payload p;
  for (ObjectId o : reads) p.reads.push_back({o, read_version});
  for (ObjectId o : writes) p.writes.push_back({o, static_cast<Value>(o * 10)});
  p.commit_version = commit_version;
  return p;
}

TEST(CommitBasic, SingleShardCommit) {
  Cluster cluster({.seed = 1, .num_shards = 1, .shard_size = 2});
  Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t, make_payload({0}, {0}, 0, 1));
  cluster.sim().run();
  EXPECT_EQ(client.decision(t), Decision::kCommit);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(CommitBasic, CrossShardCommit) {
  Cluster cluster({.seed = 2, .num_shards = 3, .shard_size = 2});
  Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  // Objects 0,1,2 live on shards 0,1,2.
  client.certify_colocated(cluster.replica(0, 1), t,
                           make_payload({0, 1, 2}, {0, 1}, 0, 1));
  cluster.sim().run();
  EXPECT_EQ(client.decision(t), Decision::kCommit);
  // Every member of every involved shard learned the decision.
  for (ShardId s = 0; s < 3; ++s) {
    for (std::size_t i = 0; i < 2; ++i) {
      const Replica& r = cluster.replica(s, i);
      Slot k = r.log().slot_of(t);
      ASSERT_NE(k, kNoSlot) << "s" << s << " replica " << i;
      EXPECT_EQ(r.log().find(k)->phase, Phase::kDecided);
      EXPECT_EQ(r.log().find(k)->dec, Decision::kCommit);
    }
  }
  EXPECT_EQ(cluster.verify(), "");
}

TEST(CommitBasic, ConflictingTransactionAborts) {
  Cluster cluster({.seed = 3, .num_shards = 1, .shard_size = 2});
  Client& client = cluster.add_client();
  TxnId t1 = cluster.next_txn_id();
  TxnId t2 = cluster.next_txn_id();
  // Both read object 0 at version 0 and write it: the second one certified
  // must abort (g_s lock-conflict check while t1 is prepared, or f_s version
  // check after t1 commits).
  client.certify_colocated(cluster.replica(0, 1), t1, make_payload({0}, {0}, 0, 1));
  client.certify_colocated(cluster.replica(0, 1), t2, make_payload({0}, {0}, 0, 1));
  cluster.sim().run();
  EXPECT_EQ(client.decision(t1), Decision::kCommit);
  EXPECT_EQ(client.decision(t2), Decision::kAbort);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(CommitBasic, NonConflictingTransactionsAllCommit) {
  Cluster cluster({.seed = 4, .num_shards = 2, .shard_size = 2});
  Client& client = cluster.add_client();
  std::vector<TxnId> txns;
  for (int i = 0; i < 20; ++i) {
    TxnId t = cluster.next_txn_id();
    txns.push_back(t);
    // Disjoint objects: 2*i and 2*i+1 (shards 0 and 1).
    client.certify_colocated(cluster.replica(0, 1), t,
                             make_payload({static_cast<ObjectId>(2 * i),
                                           static_cast<ObjectId>(2 * i + 1)},
                                          {static_cast<ObjectId>(2 * i)}, 0, 1));
  }
  cluster.sim().run();
  for (TxnId t : txns) EXPECT_EQ(client.decision(t), Decision::kCommit);
  EXPECT_EQ(cluster.verify(), "");
  // The committed projection is linearizable (black-box TCS check).
  auto lin = checker::check_linearization(cluster.history(), cluster.certifier());
  EXPECT_TRUE(lin.ok) << lin.error;
}

TEST(CommitBasic, SequentialConflictHandledByVersionBump) {
  Cluster cluster({.seed = 5, .num_shards = 1, .shard_size = 2});
  Client& client = cluster.add_client();
  TxnId t1 = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t1, make_payload({0}, {0}, 0, 1));
  cluster.sim().run();
  ASSERT_EQ(client.decision(t1), Decision::kCommit);
  // t2 read the version t1 installed: no conflict.
  TxnId t2 = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t2, make_payload({0}, {0}, 1, 2));
  cluster.sim().run();
  EXPECT_EQ(client.decision(t2), Decision::kCommit);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(CommitBasic, ColocatedClientLearnsInFourDelays) {
  // Paper Sec. 3: "We can further reduce this to 4 by co-locating the
  // client with the transaction coordinator."
  Cluster cluster({.seed = 6, .num_shards = 2, .shard_size = 2});
  Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t, make_payload({0, 1}, {0}, 0, 1));
  cluster.sim().run();
  ASSERT_TRUE(client.decided(t));
  EXPECT_EQ(client.latency(t), 4u);
}

TEST(CommitBasic, RemoteClientLearnsInFiveDelaysAfterCoordinator) {
  // Paper Sec. 3: 5 message delays from when the coordinator starts; the
  // client-observed latency adds the submission hop.
  Cluster cluster({.seed = 7, .num_shards = 2, .shard_size = 2});
  Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  client.certify_remote(cluster.replica(0, 1).id(), t, make_payload({0, 1}, {0}, 0, 1));
  cluster.sim().run();
  ASSERT_TRUE(client.decided(t));
  EXPECT_EQ(client.latency(t), 6u);  // 1 (submit) + 5 (protocol)
}

TEST(CommitBasic, Figure2aMessageFlow) {
  // The delivered message sequence for one transaction matches Fig. 2a:
  // PREPARE -> PREPARE_ACK -> ACCEPT -> ACCEPT_ACK -> DECISION.
  Cluster cluster({.seed = 8, .num_shards = 2, .shard_size = 2, .enable_tracer = true});
  Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t, make_payload({0, 1}, {0}, 0, 1));
  cluster.sim().run();
  ASSERT_TRUE(client.decided(t));
  auto types = cluster.tracer().delivered_types();
  // Two shards: 2 PREPAREs, 2 PREPARE_ACKs, 2 ACCEPTs (one follower each),
  // 2 ACCEPT_ACKs, then DECISIONs; strictly phased under unit delays.
  std::vector<std::string> expect{"PREPARE",    "PREPARE",    "PREPARE_ACK",
                                  "PREPARE_ACK", "ACCEPT",     "ACCEPT",
                                  "ACCEPT_ACK", "ACCEPT_ACK"};
  ASSERT_GE(types.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) EXPECT_EQ(types[i], expect[i]);
  for (std::size_t i = expect.size(); i < types.size(); ++i) {
    EXPECT_EQ(types[i], "DECISION");
  }
}

TEST(CommitBasic, LeaderLoadIsThreeMessagesPerTransaction) {
  // Paper Sec. 3: "each involved leader only has to receive one PREPARE and
  // one DECISION message, and send one PREPARE_ACK message."
  Cluster cluster({.seed = 9, .num_shards = 1, .shard_size = 3});
  Client& client = cluster.add_client();
  const int kTxns = 50;
  for (int i = 0; i < kTxns; ++i) {
    client.certify_colocated(cluster.replica(0, 1), cluster.next_txn_id(),
                             make_payload({static_cast<ObjectId>(i)},
                                          {static_cast<ObjectId>(i)}, 0, 1));
  }
  cluster.sim().run();
  const auto& leader_traffic = cluster.net().traffic(cluster.leader_of(0));
  EXPECT_EQ(leader_traffic.received_by_type().at("PREPARE"), kTxns);
  EXPECT_EQ(leader_traffic.received_by_type().at("DECISION"), kTxns);
  EXPECT_EQ(leader_traffic.sent_by_type().at("PREPARE_ACK"), kTxns);
  // The leader never ships ACCEPTs — the coordinator does.
  EXPECT_EQ(leader_traffic.sent_by_type().count("ACCEPT"), 0u);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(CommitBasic, SingleReplicaShards) {
  // f = 0: one replica per shard, no followers to wait for.
  Cluster cluster({.seed = 10, .num_shards = 2, .shard_size = 1});
  Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 0), t, make_payload({0, 1}, {1}, 0, 1));
  cluster.sim().run();
  EXPECT_EQ(client.decision(t), Decision::kCommit);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(CommitBasic, LargerShardsStillDecide) {
  Cluster cluster({.seed = 11, .num_shards = 2, .shard_size = 4});
  Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(1, 2), t, make_payload({0, 1}, {0, 1}, 0, 1));
  cluster.sim().run();
  EXPECT_EQ(client.decision(t), Decision::kCommit);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(CommitBasic, ManyClientsInterleaved) {
  Cluster cluster({.seed = 12, .num_shards = 2, .shard_size = 2});
  std::vector<Client*> clients;
  for (int i = 0; i < 4; ++i) clients.push_back(&cluster.add_client());
  // All clients race on the same object; exactly one write per version can
  // win at each step, but with concurrent submission only one commits.
  std::vector<TxnId> txns;
  for (int i = 0; i < 4; ++i) {
    TxnId t = cluster.next_txn_id();
    txns.push_back(t);
    clients[static_cast<std::size_t>(i)]->certify_colocated(
        cluster.replica(0, static_cast<std::size_t>(i % 2)), t,
        make_payload({0}, {0}, 0, 1));
  }
  cluster.sim().run();
  int commits = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(clients[i]->decided(txns[i]));
    if (clients[i]->decision(txns[i]) == Decision::kCommit) ++commits;
  }
  EXPECT_EQ(commits, 1);
  EXPECT_EQ(cluster.verify(), "");
  auto lin = checker::check_linearization(cluster.history(), cluster.certifier());
  EXPECT_TRUE(lin.ok) << lin.error;
}

TEST(CommitBasic, SnapshotIsolationAllowsWriteSkew) {
  Cluster cluster(
      {.seed = 13, .num_shards = 1, .shard_size = 2, .isolation = "snapshot-isolation"});
  Client& client = cluster.add_client();
  // Write skew: t1 reads {0,2} writes 0; t2 reads {0,2} writes 2.
  TxnId t1 = cluster.next_txn_id(), t2 = cluster.next_txn_id();
  Payload p1 = make_payload({0, 2}, {0}, 0, 1);
  Payload p2 = make_payload({0, 2}, {2}, 0, 1);
  client.certify_colocated(cluster.replica(0, 1), t1, p1);
  client.certify_colocated(cluster.replica(0, 1), t2, p2);
  cluster.sim().run();
  EXPECT_EQ(client.decision(t1), Decision::kCommit);
  EXPECT_EQ(client.decision(t2), Decision::kCommit);  // SI commits both
  EXPECT_EQ(cluster.verify(), "");
}

TEST(CommitBasic, SerializabilityRejectsWriteSkew) {
  Cluster cluster({.seed = 14, .num_shards = 1, .shard_size = 2});
  Client& client = cluster.add_client();
  TxnId t1 = cluster.next_txn_id(), t2 = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t1, make_payload({0, 2}, {0}, 0, 1));
  client.certify_colocated(cluster.replica(0, 1), t2, make_payload({0, 2}, {2}, 0, 1));
  cluster.sim().run();
  // One of them must abort under serializability.
  int commits = (client.decision(t1) == Decision::kCommit ? 1 : 0) +
                (client.decision(t2) == Decision::kCommit ? 1 : 0);
  EXPECT_EQ(commits, 1);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(CommitBasic, ExponentialDelaysStillCorrect) {
  Cluster cluster({.seed = 15,
                   .num_shards = 3,
                   .shard_size = 2,
                   .exponential_delays = true,
                   .delay_mean = 7.0});
  Client& client = cluster.add_client();
  std::vector<TxnId> txns;
  for (int i = 0; i < 30; ++i) {
    TxnId t = cluster.next_txn_id();
    txns.push_back(t);
    client.certify_colocated(
        cluster.replica(static_cast<ShardId>(i % 3), 1), t,
        make_payload({static_cast<ObjectId>(i), static_cast<ObjectId>(i + 30)},
                     {static_cast<ObjectId>(i)}, 0, 1));
  }
  cluster.sim().run();
  for (TxnId t : txns) EXPECT_TRUE(client.decided(t));
  EXPECT_EQ(cluster.verify(), "");
}

TEST(CommitBasic, HistoryRecordsAreComplete) {
  Cluster cluster({.seed = 16, .num_shards = 2, .shard_size = 2});
  Client& client = cluster.add_client();
  for (int i = 0; i < 10; ++i) {
    client.certify_colocated(cluster.replica(0, 0), cluster.next_txn_id(),
                             make_payload({static_cast<ObjectId>(i)}, {}, 0, 0));
  }
  cluster.sim().run();
  EXPECT_TRUE(cluster.history().complete());
  EXPECT_EQ(cluster.history().committed_count() + cluster.history().aborted_count(),
            10u);
}

}  // namespace
}  // namespace ratc::commit
