// Reconfiguration and recovery behaviour (Fig. 1 lines 33-73, Fig. 2b,
// Theorems 4.2-4.4, and the Sec. 3 "losing undecided transactions"
// discussion).
#include <gtest/gtest.h>

#include "checker/linearization.h"
#include "commit/cluster.h"

namespace ratc::commit {
namespace {

using tcs::Decision;
using tcs::Payload;

Payload make_payload(std::vector<ObjectId> reads, std::vector<ObjectId> writes,
                     Version read_version, Version commit_version) {
  Payload p;
  for (ObjectId o : reads) p.reads.push_back({o, read_version});
  for (ObjectId o : writes) p.writes.push_back({o, static_cast<Value>(o * 10)});
  p.commit_version = commit_version;
  return p;
}

TEST(CommitReconfig, LeaderCrashThenReconfigureAndResume) {
  Cluster cluster({.seed = 1, .num_shards = 2, .shard_size = 2});
  Client& client = cluster.add_client();

  // Commit one transaction, then kill shard 0's leader.
  TxnId t1 = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(1, 1), t1, make_payload({0, 1}, {0}, 0, 1));
  cluster.sim().run();
  ASSERT_EQ(client.decision(t1), Decision::kCommit);

  ProcessId old_leader = cluster.leader_of(0);
  cluster.crash(old_leader);
  // The surviving follower triggers reconfiguration (Fig. 2b).
  ProcessId follower = cluster.replica(0, 1).id();
  cluster.reconfigure(0, follower);
  ASSERT_TRUE(cluster.await_active_epoch(0, 2));

  configsvc::ShardConfig cfg = cluster.current_config(0);
  EXPECT_EQ(cfg.epoch, 2u);
  EXPECT_EQ(cfg.leader, follower);  // the initialized survivor leads
  EXPECT_EQ(cfg.members.size(), 2u);  // topped up with a spare
  EXPECT_TRUE(cfg.has_member(cluster.spares(0)[0]));

  // The committed transaction survived into the new epoch.
  Replica& new_leader = cluster.replica_by_pid(follower);
  Slot k = new_leader.log().slot_of(t1);
  ASSERT_NE(k, kNoSlot);
  EXPECT_EQ(new_leader.log().find(k)->dec, Decision::kCommit);

  // Certification resumes in the new configuration (Theorem 4.4 shape).
  TxnId t2 = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(1, 1), t2, make_payload({2, 3}, {2}, 0, 1));
  cluster.sim().run();
  EXPECT_EQ(client.decision(t2), Decision::kCommit);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(CommitReconfig, FollowerCrashReplacedBySpare) {
  Cluster cluster({.seed = 2, .num_shards = 1, .shard_size = 3});
  Client& client = cluster.add_client();
  TxnId t1 = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t1, make_payload({0}, {0}, 0, 1));
  cluster.sim().run();
  ASSERT_EQ(client.decision(t1), Decision::kCommit);

  // Crash one follower; the leader reconfigures.
  cluster.crash(cluster.replica(0, 2).id());
  cluster.reconfigure(0, cluster.leader_of(0));
  ASSERT_TRUE(cluster.await_active_epoch(0, 2));

  configsvc::ShardConfig cfg = cluster.current_config(0);
  EXPECT_EQ(cfg.members.size(), 3u);
  EXPECT_FALSE(cfg.has_member(cluster.replica(0, 2).id()));

  // Coordinate through a current member: processes squeezed out of the
  // membership keep a stale view of their own shard (line 68 deliberately
  // skips s = s0) and can no longer act as coordinators.
  TxnId t2 = cluster.next_txn_id();
  client.certify_colocated(cluster.replica_by_pid(cfg.leader), t2,
                           make_payload({2}, {2}, 0, 1));
  cluster.sim().run();
  EXPECT_EQ(client.decision(t2), Decision::kCommit);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(CommitReconfig, ConfigChangePropagatesToOtherShards) {
  Cluster cluster({.seed = 3, .num_shards = 3, .shard_size = 2});
  cluster.crash(cluster.leader_of(0));
  cluster.reconfigure(0, cluster.replica(0, 1).id());
  ASSERT_TRUE(cluster.await_active_epoch(0, 2));
  cluster.sim().run();
  // Replicas of shards 1 and 2 learned the new configuration of shard 0
  // via CONFIG_CHANGE (line 67).
  for (ShardId s = 1; s < 3; ++s) {
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(cluster.replica(s, i).view(0).epoch, 2u)
          << "s" << s << " replica " << i;
    }
  }
  EXPECT_EQ(cluster.verify(), "");
}

TEST(CommitReconfig, InFlightTransactionRecoveredByRetry) {
  // The coordinator crashes mid-protocol; a replica that has the
  // transaction prepared becomes a new coordinator via retry (line 70).
  Cluster cluster({.seed = 4, .num_shards = 2, .shard_size = 2});
  Client& client = cluster.add_client();
  // Use a spare of shard 0 as coordinator so crashing it doesn't affect
  // shard membership.
  ProcessId coord = cluster.spares(0)[0];
  TxnId t = cluster.next_txn_id();
  client.certify_remote(coord, t, make_payload({0, 1}, {0, 1}, 0, 1));
  // Run until both leaders prepared the transaction (PREPARE delivered at
  // t=2 after submit at t=0), then kill the coordinator.
  cluster.sim().run_until(2);
  ASSERT_NE(cluster.replica(0, 0).log().slot_of(t), kNoSlot);
  ASSERT_NE(cluster.replica(1, 0).log().slot_of(t), kNoSlot);
  cluster.crash(coord);
  cluster.sim().run();
  EXPECT_FALSE(client.decided(t));  // stuck: coordinator gone

  // Shard 0's leader notices and retries.
  Replica& leader = cluster.replica(0, 0);
  leader.retry(leader.log().slot_of(t));
  cluster.sim().run();
  ASSERT_TRUE(client.decided(t));
  EXPECT_EQ(client.decision(t), Decision::kCommit);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(CommitReconfig, AutomaticRetryTimerRecoversTransactions) {
  Cluster cluster({.seed = 5, .num_shards = 2, .shard_size = 2, .retry_timeout = 50});
  Client& client = cluster.add_client();
  ProcessId coord = cluster.spares(0)[0];
  TxnId t = cluster.next_txn_id();
  client.certify_remote(coord, t, make_payload({0, 1}, {0}, 0, 1));
  cluster.sim().run_until(2);
  cluster.crash(coord);
  // The retry timers fire on their own; bounded run because timers re-arm.
  cluster.sim().run_until(500);
  ASSERT_TRUE(client.decided(t));
  EXPECT_EQ(client.decision(t), Decision::kCommit);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(CommitReconfig, RetryAbortsTransactionUnknownToAShard) {
  // Paper Sec. 3 coordinator recovery: if a shard's leader never received
  // the payload, it prepares the transaction as aborted with ε (line 15).
  Cluster cluster({.seed = 6, .num_shards = 2, .shard_size = 2});
  Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  Payload full = make_payload({0, 1}, {0, 1}, 0, 1);

  // Simulate a coordinator that crashed between PREPAREs: only shard 0's
  // leader gets the transaction.
  Prepare p;
  p.txn = t;
  p.has_payload = true;
  p.payload = cluster.shard_map().project(full, 0);
  p.meta = TxnMeta{t, {0, 1}, client.id()};
  cluster.history().record_certify(cluster.sim().now(), t, full);
  cluster.net().send_msg(client.id(), cluster.leader_of(0), p);
  cluster.sim().run();

  Replica& leader0 = cluster.replica(0, 0);
  Slot k = leader0.log().slot_of(t);
  ASSERT_NE(k, kNoSlot);
  EXPECT_FALSE(client.decided(t));

  // Shard 0's leader retries; shard 1 votes abort with an empty payload.
  leader0.retry(k);
  cluster.sim().run();
  ASSERT_TRUE(client.decided(t));
  EXPECT_EQ(client.decision(t), Decision::kAbort);

  // Shard 1 prepared it as aborted with ε.
  Replica& leader1 = cluster.replica(1, 0);
  Slot k1 = leader1.log().slot_of(t);
  ASSERT_NE(k1, kNoSlot);
  EXPECT_EQ(leader1.log().find(k1)->vote, Decision::kAbort);
  EXPECT_TRUE(leader1.log().find(k1)->payload.is_empty());

  // A spuriously-suspected original coordinator resubmitting just learns
  // the abort vote (line 6).
  Prepare late;
  late.txn = t;
  late.has_payload = true;
  late.payload = cluster.shard_map().project(full, 1);
  late.meta = p.meta;
  cluster.net().send_msg(client.id(), cluster.leader_of(1), late);
  cluster.sim().run();
  EXPECT_EQ(cluster.verify(), "");
}

TEST(CommitReconfig, LosesUndecidedTransactionPreservingCorrectness) {
  // Paper Sec. 3 "Losing undecided transactions": t1 is prepared at the
  // leader and feeds into t2's vote (as a prepared witness), but is never
  // persisted at followers.  After the leader and t1's coordinator crash,
  // t1 vanishes while t2 survives and commits — and this is correct.
  Cluster cluster({.seed = 7, .num_shards = 1, .shard_size = 2});
  Client& c1 = cluster.add_client();
  Client& c2 = cluster.add_client();

  ProcessId doomed_coord = cluster.spares(0)[1];
  TxnId t1 = cluster.next_txn_id();
  c1.certify_remote(doomed_coord, t1, make_payload({0}, {0}, 0, 1));
  // Let the PREPARE reach the leader (t=2) but kill the coordinator before
  // it can forward the ACCEPT (it would process PREPARE_ACK at t=3).
  cluster.sim().run_until(2);
  Replica& old_leader = cluster.replica(0, 0);
  ASSERT_NE(old_leader.log().slot_of(t1), kNoSlot);
  cluster.crash(doomed_coord);
  cluster.sim().run();
  ASSERT_FALSE(c1.decided(t1));
  // The follower never saw t1.
  EXPECT_EQ(cluster.replica(0, 1).log().slot_of(t1), kNoSlot);

  // t2 (non-conflicting) is certified normally: its vote is computed with
  // t1 in the prepared set.
  TxnId t2 = cluster.next_txn_id();
  c2.certify_colocated(cluster.replica(0, 1), t2, make_payload({2}, {2}, 0, 1));
  cluster.sim().run();
  ASSERT_EQ(c2.decision(t2), Decision::kCommit);

  // Now the leader dies; the follower takes over; t1 is lost forever.
  cluster.crash(old_leader.id());
  cluster.reconfigure(0, cluster.replica(0, 1).id());
  ASSERT_TRUE(cluster.await_active_epoch(0, 2));
  Replica& new_leader = cluster.replica(0, 1);
  EXPECT_EQ(new_leader.log().slot_of(t1), kNoSlot);  // lost
  Slot k2 = new_leader.log().slot_of(t2);
  ASSERT_NE(k2, kNoSlot);  // survived
  EXPECT_EQ(new_leader.log().find(k2)->dec, Decision::kCommit);

  // The hole left by t1 does not block further certification.
  TxnId t3 = cluster.next_txn_id();
  c2.certify_colocated(new_leader, t3, make_payload({4}, {4}, 0, 1));
  cluster.sim().run();
  EXPECT_EQ(c2.decision(t3), Decision::kCommit);

  // No decision for t1 was ever externalized, and the execution is correct.
  EXPECT_FALSE(c1.decided(t1));
  EXPECT_EQ(cluster.verify(), "");
  auto lin = checker::check_linearization(cluster.history(), cluster.certifier());
  EXPECT_TRUE(lin.ok) << lin.error;
}

TEST(CommitReconfig, ProbingDescendsThroughDeadEpoch) {
  // Vertical-Paxos-I style probing (lines 51-55): a stored-but-never-
  // activated configuration is skipped, and an initialized process from an
  // older epoch becomes the leader.
  Cluster cluster({.seed = 8, .num_shards = 1, .shard_size = 2, .spares_per_shard = 3});
  Client& client = cluster.add_client();
  TxnId t1 = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t1, make_payload({0}, {0}, 0, 1));
  cluster.sim().run();
  ASSERT_EQ(client.decision(t1), Decision::kCommit);

  ProcessId p100 = cluster.replica(0, 0).id();  // leader, initialized
  ProcessId p101 = cluster.replica(0, 1).id();  // follower, initialized
  ProcessId reconfigurer = cluster.spares(0)[2];

  // A spurious reconfiguration (no one actually failed) starts: the first
  // PROBE_ACK(true) comes from the leader, so epoch 2 = {leader, spare}.
  cluster.reconfigure(0, reconfigurer);
  bool stored = cluster.sim().run_until_pred(
      [&] { return cluster.current_config(0).epoch == 2; });
  ASSERT_TRUE(stored);
  configsvc::ShardConfig cfg2 = cluster.current_config(0);
  ASSERT_EQ(cfg2.leader, p100);
  ASSERT_FALSE(cfg2.has_member(p101));  // squeezed out by the spare top-up

  // The new leader dies before NEW_CONFIG reaches it: epoch 2 will never
  // activate.
  cluster.crash(p100);
  cluster.sim().run();
  EXPECT_NE(cluster.replica_by_pid(cfg2.members[1]).epoch(), 2u);

  // A second reconfiguration probes epoch 2, gets only PROBE_ACK(false)
  // from the uninitialized spare, descends to epoch 1 and finds the
  // initialized follower p101.
  cluster.reconfigure(0, reconfigurer);
  ASSERT_TRUE(cluster.await_active_epoch(0, 3));
  configsvc::ShardConfig cfg3 = cluster.current_config(0);
  EXPECT_EQ(cfg3.leader, p101);

  // Data committed at epoch 1 survived the descent.
  Replica& new_leader = cluster.replica_by_pid(p101);
  Slot k = new_leader.log().slot_of(t1);
  ASSERT_NE(k, kNoSlot);
  EXPECT_EQ(new_leader.log().find(k)->dec, Decision::kCommit);

  // And certification works in epoch 3.
  TxnId t2 = cluster.next_txn_id();
  client.certify_colocated(new_leader, t2, make_payload({2}, {2}, 0, 1));
  cluster.sim().run();
  EXPECT_EQ(client.decision(t2), Decision::kCommit);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(CommitReconfig, ConcurrentReconfigurationsOnlyOneWins) {
  Cluster cluster({.seed = 9, .num_shards = 1, .shard_size = 3, .spares_per_shard = 3});
  cluster.crash(cluster.leader_of(0));
  // Two surviving followers race to reconfigure.
  cluster.reconfigure(0, cluster.replica(0, 1).id());
  cluster.reconfigure(0, cluster.replica(0, 2).id());
  ASSERT_TRUE(cluster.await_active_epoch(0, 2));
  cluster.sim().run();
  // The CAS arbitrates: exactly one epoch-2 configuration exists.
  configsvc::ShardConfig cfg = cluster.current_config(0);
  EXPECT_EQ(cfg.epoch, 2u);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(CommitReconfig, SequentialReconfigurationsExhaustSpares) {
  Cluster cluster({.seed = 10, .num_shards = 1, .shard_size = 2, .spares_per_shard = 2});
  Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t, make_payload({0}, {0}, 0, 1));
  cluster.sim().run();
  ASSERT_EQ(client.decision(t), Decision::kCommit);

  // Two successive leader failures, each followed by a reconfiguration.
  for (Epoch target = 2; target <= 3; ++target) {
    configsvc::ShardConfig cfg = cluster.current_config(0);
    cluster.crash(cfg.leader);
    ProcessId survivor = kNoProcess;
    for (ProcessId m : cfg.members) {
      if (!cluster.sim().crashed(m)) survivor = m;
    }
    ASSERT_NE(survivor, kNoProcess);
    cluster.reconfigure(0, survivor);
    ASSERT_TRUE(cluster.await_active_epoch(0, target)) << "epoch " << target;
  }
  // The committed transaction survived two generations of membership.
  configsvc::ShardConfig cfg = cluster.current_config(0);
  Replica& leader = cluster.replica_by_pid(cfg.leader);
  Slot k = leader.log().slot_of(t);
  ASSERT_NE(k, kNoSlot);
  EXPECT_EQ(leader.log().find(k)->dec, Decision::kCommit);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(CommitReconfig, WorksWithReplicatedConfigService) {
  Cluster cluster({.seed = 11, .num_shards = 2, .shard_size = 2, .replicated_cs = true});
  Client& client = cluster.add_client();
  TxnId t1 = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t1, make_payload({0, 1}, {0}, 0, 1));
  cluster.sim().run();
  ASSERT_EQ(client.decision(t1), Decision::kCommit);

  cluster.crash(cluster.leader_of(0));
  cluster.reconfigure(0, cluster.replica(0, 1).id());
  ASSERT_TRUE(cluster.await_active_epoch(0, 2));

  TxnId t2 = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t2, make_payload({2, 3}, {2}, 0, 1));
  cluster.sim().run();
  EXPECT_EQ(client.decision(t2), Decision::kCommit);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(CommitReconfig, StaleCoordinatorCannotDecideAfterReconfiguration) {
  // A transaction prepared in epoch 1 whose ACCEPT_ACKs race with a
  // reconfiguration: the coordinator's epoch check (line 26) prevents a
  // decision against the stale epoch; the transaction completes only via
  // retry in the new epoch.  Invariant 4 holds throughout.
  Cluster cluster({.seed = 12, .num_shards = 1, .shard_size = 2});
  Client& client = cluster.add_client();
  ProcessId coord = cluster.spares(0)[1];
  TxnId t = cluster.next_txn_id();
  client.certify_remote(coord, t, make_payload({0}, {0}, 0, 1));
  // Stop just after the leader prepares (t=2): the coordinator has not yet
  // processed the PREPARE_ACK.
  cluster.sim().run_until(2);
  // Reconfiguration begins: probing freezes both members.
  cluster.reconfigure(0, cluster.replica(0, 1).id());
  cluster.sim().run_until(3);  // PROBE delivered; members now reconfiguring
  cluster.sim().run();
  ASSERT_TRUE(cluster.await_active_epoch(0, 2, 100000));
  // The follower (now in epoch 2) rejected any epoch-1 ACCEPT; no decision
  // may have been externalized for the stale attempt unless retried.
  Replica& new_leader = cluster.replica_by_pid(cluster.current_config(0).leader);
  Slot k = new_leader.log().slot_of(t);
  if (k != kNoSlot && new_leader.log().find(k)->phase == Phase::kPrepared) {
    new_leader.retry(k);
    cluster.sim().run();
  }
  EXPECT_EQ(cluster.verify(), "");
}

}  // namespace
}  // namespace ratc::commit
