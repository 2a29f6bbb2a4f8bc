// Edge cases of the commit protocol: duplicate/stale message handling, the
// guards the pseudocode's preconditions encode, multiple concurrent
// coordinators, and the leader-driven replication ablation.
#include <gtest/gtest.h>

#include "commit/cluster.h"

namespace ratc::commit {
namespace {

using tcs::Decision;
using tcs::Payload;

Payload one_object(ObjectId o, Version v = 0) {
  Payload p;
  p.reads = {{o, v}};
  p.writes = {{o, static_cast<Value>(o + 1)}};
  p.commit_version = v + 1;
  return p;
}

TEST(CommitEdge, DuplicatePrepareIsResentNotReprepared) {
  // Fig. 1 lines 6-7: a PREPARE for an already-certified transaction gets
  // the stored result back; the log does not grow.
  Cluster cluster({.seed = 1, .num_shards = 1, .shard_size = 2});
  Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t, one_object(0));
  cluster.sim().run();
  ASSERT_EQ(client.decision(t), Decision::kCommit);

  Replica& leader = cluster.replica(0, 0);
  Slot before = leader.log().max_filled();

  Prepare dup;
  dup.txn = t;
  dup.has_payload = true;
  dup.payload = one_object(0);
  dup.meta = TxnMeta{t, {0}, client.id()};
  cluster.net().send_msg(client.id(), leader.id(), dup);
  cluster.sim().run();
  EXPECT_EQ(leader.log().max_filled(), before);  // no new slot
  EXPECT_EQ(cluster.verify(), "");
}

TEST(CommitEdge, PrepareAtNonLeaderIsDropped) {
  // Line 5 pre: status = leader.
  Cluster cluster({.seed = 2, .num_shards = 1, .shard_size = 2});
  Client& client = cluster.add_client();
  Replica& follower = cluster.replica(0, 1);
  Prepare p;
  p.txn = 42;
  p.has_payload = true;
  p.payload = one_object(0);
  p.meta = TxnMeta{42, {0}, client.id()};
  cluster.net().send_msg(client.id(), follower.id(), p);
  cluster.sim().run();
  EXPECT_EQ(follower.log().slot_of(42), kNoSlot);
}

TEST(CommitEdge, StaleEpochAcceptRejected) {
  // Line 22 pre: epoch[s0] = e — the guard the RDMA variant cannot have.
  Cluster cluster({.seed = 3, .num_shards = 1, .shard_size = 2});
  Client& client = cluster.add_client();
  Replica& follower = cluster.replica(0, 1);
  Accept acc;
  acc.epoch = 99;  // from the future
  acc.shard = 0;
  acc.slot = 1;
  acc.txn = 42;
  acc.payload = one_object(0);
  acc.vote = Decision::kCommit;
  acc.meta = TxnMeta{42, {0}, client.id()};
  cluster.net().send_msg(client.id(), follower.id(), acc);
  cluster.sim().run();
  EXPECT_EQ(follower.log().slot_of(42), kNoSlot);
}

TEST(CommitEdge, StaleDecisionEpochRejected) {
  // Line 31 pre: epoch[s0] >= e.
  Cluster cluster({.seed = 4, .num_shards = 1, .shard_size = 2});
  Client& client = cluster.add_client();
  Replica& leader = cluster.replica(0, 0);
  DecisionMsg d;
  d.epoch = 99;
  d.shard = 0;
  d.slot = 1;
  d.txn = 42;
  d.decision = Decision::kCommit;
  cluster.net().send_msg(client.id(), leader.id(), d);
  cluster.sim().run();
  const LogEntry* e = leader.log().find(1);
  EXPECT_TRUE(e == nullptr || e->phase != Phase::kDecided);
}

TEST(CommitEdge, AbortDecisionOnHoleIsTolerated) {
  // A follower that missed the ACCEPT (hole) still records an abort
  // decision for the slot (line 32 writes unconditionally).
  Cluster cluster({.seed = 5, .num_shards = 1, .shard_size = 2});
  Client& client = cluster.add_client();
  Replica& follower = cluster.replica(0, 1);
  DecisionMsg d;
  d.epoch = 1;
  d.shard = 0;
  d.slot = 3;
  d.txn = 42;
  d.decision = Decision::kAbort;
  cluster.net().send_msg(client.id(), follower.id(), d);
  cluster.sim().run();
  const LogEntry* e = follower.log().find(3);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->phase, Phase::kDecided);
  EXPECT_EQ(e->dec, Decision::kAbort);
}

TEST(CommitEdge, TwoConcurrentCoordinatorsAgree) {
  // "Our protocol allows any number of processes to become coordinators of
  // a transaction at the same time ... they will all reach the same
  // decision" (Invariant 4).
  Cluster cluster({.seed = 6, .num_shards = 2, .shard_size = 2});
  Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  client.certify_remote(cluster.spares(0)[0], t, Payload{{{0, 0}, {1, 0}},
                                                         {{0, 5}, {1, 5}},
                                                         1});
  // Let both leaders prepare, then have BOTH of them retry concurrently.
  cluster.sim().run_until(2);
  Replica& l0 = cluster.replica(0, 0);
  Replica& l1 = cluster.replica(1, 0);
  ASSERT_NE(l0.log().slot_of(t), kNoSlot);
  ASSERT_NE(l1.log().slot_of(t), kNoSlot);
  l0.retry(l0.log().slot_of(t));
  l1.retry(l1.log().slot_of(t));
  cluster.sim().run();
  ASSERT_TRUE(client.decided(t));
  // The monitor checked Invariant 4a/4b across the three coordinators'
  // decisions; the history has no conflicting decisions.
  EXPECT_EQ(cluster.verify(), "");
}

TEST(CommitEdge, RetryOfDecidedSlotIsNoop) {
  // Line 71 pre: phase[k] = prepared.
  Cluster cluster({.seed = 7, .num_shards = 1, .shard_size = 2});
  Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t, one_object(0));
  cluster.sim().run();
  ASSERT_EQ(client.decision(t), Decision::kCommit);
  Replica& leader = cluster.replica(0, 0);
  std::uint64_t msgs_before = cluster.net().total_messages();
  leader.retry(leader.log().slot_of(t));
  cluster.sim().run();
  EXPECT_EQ(cluster.net().total_messages(), msgs_before);  // nothing sent
}

TEST(CommitEdge, EmptyParticipantsCommitsImmediately) {
  Cluster cluster({.seed = 8, .num_shards = 2, .shard_size = 2});
  Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 0), t, tcs::empty_payload());
  // Decided synchronously: no messages needed.
  EXPECT_EQ(client.decision(t), Decision::kCommit);
  EXPECT_EQ(*client.latency(t), 0u);
}

TEST(CommitEdge, ConfigChangeWithStaleEpochIgnored) {
  // Line 68 pre: epoch[s] < e.
  Cluster cluster({.seed = 9, .num_shards = 2, .shard_size = 2});
  Replica& r = cluster.replica(1, 0);
  ASSERT_EQ(r.view(0).epoch, 1u);
  configsvc::ConfigChange stale;
  stale.shard = 0;
  stale.config.epoch = 1;  // not newer
  stale.config.members = {12345};
  stale.config.leader = 12345;
  cluster.net().send_msg(9000, r.id(), stale);
  cluster.sim().run();
  EXPECT_NE(r.view(0).leader, 12345u);  // unchanged
}

TEST(CommitEdge, LeaderDrivenAblationIsCorrectAndFaster) {
  Cluster cluster({.seed = 10,
                   .num_shards = 2,
                   .shard_size = 3,
                   .leader_ships_accepts = true});
  Client& client = cluster.add_client();
  std::vector<TxnId> txns;
  for (int i = 0; i < 30; ++i) {
    TxnId t = cluster.next_txn_id();
    txns.push_back(t);
    client.certify_colocated(cluster.replica(0, 1), t,
                             one_object(static_cast<ObjectId>(i)));
  }
  cluster.sim().run();
  for (TxnId t : txns) {
    ASSERT_TRUE(client.decided(t));
    EXPECT_EQ(*client.latency(t), 3u);  // one delay faster than the paper's 4
  }
  EXPECT_EQ(cluster.verify(), "");
}

TEST(CommitEdge, LeaderDrivenAblationSurvivesReconfiguration) {
  Cluster cluster({.seed = 11,
                   .num_shards = 1,
                   .shard_size = 2,
                   .leader_ships_accepts = true});
  Client& client = cluster.add_client();
  TxnId t1 = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t1, one_object(0));
  cluster.sim().run();
  ASSERT_EQ(client.decision(t1), Decision::kCommit);

  cluster.crash(cluster.leader_of(0));
  cluster.reconfigure(0, cluster.replica(0, 1).id());
  ASSERT_TRUE(cluster.await_active_epoch(0, 2));
  TxnId t2 = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t2, one_object(2));
  cluster.sim().run();
  EXPECT_EQ(client.decision(t2), Decision::kCommit);
  EXPECT_EQ(cluster.verify(), "");
}

}  // namespace
}  // namespace ratc::commit
