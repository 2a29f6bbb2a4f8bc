// Paxos Commit — the baseline 2PC stack in TerminationMode::kPaxosCommit:
// basic commit/abort flows, the latency edge over the other modes (the
// client reply waits only for the votes to be chosen, not for the decision
// to apply), log-order arbitration between prepares and recovery
// force-aborts (CmdResolveAbort tombstones), and the headline property — a
// crashed coordinator never strands a fully-prepared transaction, because
// the votes are replicated facts any terminating peer can read.  The
// mode's inference row is enumerated in baseline_termination_test.cc.
#include <gtest/gtest.h>

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

/// Paxos Commit is the baseline cluster in kPaxosCommit mode.
BaselineCluster::Options paxos_commit(BaselineCluster::Options o) {
  o.termination = TerminationMode::kPaxosCommit;
  return o;
}

// --- basic flows --------------------------------------------------------------

TEST(PaxosCommit, SingleShardCommit) {
  BaselineCluster cluster(paxos_commit({.seed = 1, .num_shards = 1, .shard_size = 3}));
  commit::Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  Payload p = make_payload({0}, {0}, 0, 1);
  client.certify_remote(cluster.coordinator_for(p), t, p);
  cluster.sim().run();
  EXPECT_EQ(client.decision(t), Decision::kCommit);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(PaxosCommit, CrossShardCommitWithAllReplicasApplying) {
  BaselineCluster cluster(paxos_commit({.seed = 2, .num_shards = 2, .shard_size = 3}));
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
  EXPECT_EQ(cluster.verify(), "");
}

TEST(PaxosCommit, ConflictAborts) {
  BaselineCluster cluster(paxos_commit({.seed = 3, .num_shards = 1, .shard_size = 3}));
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

TEST(PaxosCommit, ManyTransactionsAcrossShards) {
  BaselineCluster cluster(paxos_commit({.seed = 7, .num_shards = 3, .shard_size = 3}));
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
  EXPECT_EQ(cluster.verify(), "");
}

// --- the latency edge ---------------------------------------------------------

TEST(PaxosCommit, CrossShardLatencyBeatsBaselineEightDelays) {
  // The baseline replies after 1 submit + 7 protocol delays (its decision
  // must replicate through the coordinator's shard before the reply).  In
  // Paxos Commit the chosen votes ARE the decision, so the coordinator
  // replies as soon as the last vote lands: submit + SUBMIT_PREPARE +
  // Phase2a + Phase2b + vote + reply = 6 delays, two fewer.
  BaselineCluster cluster(paxos_commit({.seed = 4, .num_shards = 2, .shard_size = 3}));
  commit::Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  Payload p = make_payload({0, 1}, {0}, 0, 1);
  client.certify_remote(cluster.coordinator_for(p), t, p);
  cluster.sim().run();
  ASSERT_TRUE(client.decided(t));
  EXPECT_EQ(client.latency(t), 6u);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(PaxosCommit, SingleShardLatencyIsOnePaxosRound) {
  // Single-shard: the coordinator IS the only participant's leader, so the
  // reply waits for one Paxos append of the prepare (the vote), not a
  // second round for the decision: submit + Phase2a + Phase2b + reply = 4
  // (baseline: 6).
  BaselineCluster cluster(paxos_commit({.seed = 5, .num_shards = 1, .shard_size = 3}));
  commit::Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  Payload p = make_payload({0}, {0}, 0, 1);
  client.certify_remote(cluster.coordinator_for(p), t, p);
  cluster.sim().run();
  ASSERT_TRUE(client.decided(t));
  EXPECT_EQ(client.latency(t), 4u);
}

// --- recovery: the reason this stack exists -----------------------------------

TEST(PaxosCommit, CoordinatorCrashInAllPreparedWindowStillCommits) {
  // The 2PC killer scenario: every participant voted PREPARED, then the
  // coordinator died before externalizing anything.  Classical 2PC blocks
  // forever; cooperative termination gives up (all-prepared is exactly its
  // undecidable window).  Here the votes are chosen Paxos values, so the
  // surviving shards' recovery proposers read them back, infer COMMIT, and
  // finish the transaction — client included.
  BaselineCluster cluster(paxos_commit({.seed = 11, .num_shards = 2, .shard_size = 3}));
  commit::Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  Payload p = make_payload({0, 1}, {0, 1}, 0, 1);
  ProcessId coordinator = cluster.coordinator_for(p);
  client.certify_remote(coordinator, t, p);

  // Step tick by tick until the remote shard's leader has applied the
  // prepare (its vote is now chosen) but no decision exists anywhere; the
  // B_VOTE message is still in flight toward the coordinator.
  ShardServer& remote = cluster.server_by_pid(cluster.leader_server(1));
  while (!remote.has_prepared(t) && cluster.sim().now() < 100) {
    cluster.sim().run_until(cluster.sim().now() + 1);
  }
  ASSERT_TRUE(remote.has_prepared(t));
  ASSERT_FALSE(remote.has_decided(t));

  // Kill the coordinator machine; a survivor takes over shard 0.
  cluster.crash_server(coordinator);
  for (ProcessId m : cluster.shard_servers(0)) {
    if (!cluster.sim().crashed(m)) {
      cluster.elect_leader(0, m);
      break;
    }
  }
  cluster.sim().run();

  // Non-blocking termination: the client learns COMMIT and every surviving
  // replica of both shards applies it.
  EXPECT_EQ(client.decision(t), Decision::kCommit);
  for (ShardId s = 0; s < 2; ++s) {
    for (ProcessId pid : cluster.shard_servers(s)) {
      if (cluster.sim().crashed(pid)) continue;
      EXPECT_TRUE(cluster.server_by_pid(pid).has_decided(t)) << "pid " << pid;
      EXPECT_EQ(cluster.server_by_pid(pid).decision_of(t), Decision::kCommit);
    }
  }
  TerminationStats stats = cluster.termination_stats();
  EXPECT_GE(stats.resolved_commits, 1u);
  EXPECT_EQ(stats.blocked, 0u);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(PaxosCommit, ForceAbortTombstoneWinsRaceAgainstLatePrepare) {
  // Log-order arbitration, recovery side first: a recovery proposer forces
  // txn t's vote instance closed (ABORT) before any prepare reaches the
  // shard.  The tombstone is the chosen value, so a late prepare for t must
  // vote ABORT and the transaction aborts globally.
  BaselineCluster cluster(paxos_commit({.seed = 12, .num_shards = 2, .shard_size = 3}));
  commit::Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  Payload p = make_payload({0, 1}, {0, 1}, 0, 1);

  // Close the instance on shard 1 (a remote participant of p) directly
  // through its Paxos log, as a recovery proposer would.
  ShardServer& s1_leader = cluster.server_by_pid(cluster.leader_server(1));
  s1_leader.paxos().submit(sim::AnyMessage(CmdResolveAbort{t, kNoProcess}));
  cluster.sim().run();

  client.certify_remote(cluster.coordinator_for(p), t, p);
  cluster.sim().run();
  EXPECT_EQ(client.decision(t), Decision::kAbort);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(PaxosCommit, LateForceAbortCannotOverturnChosenVote) {
  // Log-order arbitration, prepare side first: once a transaction has
  // committed, a straggling recovery force-abort must be a no-op — the
  // first vote-determining log entry wins.
  BaselineCluster cluster(paxos_commit({.seed = 13, .num_shards = 2, .shard_size = 3}));
  commit::Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  Payload p = make_payload({0, 1}, {0, 1}, 0, 1);
  client.certify_remote(cluster.coordinator_for(p), t, p);
  cluster.sim().run();
  ASSERT_EQ(client.decision(t), Decision::kCommit);

  ShardServer& s1_leader = cluster.server_by_pid(cluster.leader_server(1));
  s1_leader.paxos().submit(sim::AnyMessage(CmdResolveAbort{t, kNoProcess}));
  cluster.sim().run();
  for (ShardId s = 0; s < 2; ++s) {
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(cluster.server(s, i).decision_of(t), Decision::kCommit);
    }
  }
  EXPECT_EQ(cluster.verify(), "");
}

// --- failover and reads -------------------------------------------------------

TEST(PaxosCommit, SurvivesMinorityFailureViaElection) {
  BaselineCluster cluster(paxos_commit({.seed = 8, .num_shards = 2, .shard_size = 3}));
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
  EXPECT_EQ(cluster.verify(), "");
}

TEST(PaxosCommit, SnapshotReadServesCommittedState) {
  BaselineCluster cluster(paxos_commit({.seed = 9, .num_shards = 2, .shard_size = 3}));
  commit::Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  Payload p = make_payload({0, 1}, {0, 1}, 0, 1);
  client.certify_remote(cluster.coordinator_for(p), t, p);
  cluster.sim().run();
  ASSERT_EQ(client.decision(t), Decision::kCommit);

  // Zero-message CSN read across both shards: served by the caught-up
  // leaders at the min of their watermarks, which now covers t's commit.
  std::optional<tcs::Csn> snap = cluster.snapshot_read({0, 1});
  ASSERT_TRUE(snap.has_value());
  EXPECT_GE(snap->ts, 1u);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(PaxosCommit, SnapshotIsolationVariant) {
  BaselineCluster cluster(paxos_commit(
      {.seed = 10, .num_shards = 1, .shard_size = 3, .isolation = "snapshot-isolation"}));
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

TEST(PaxosCommit, BatchCertifyScalarFallbackAndGrouping) {
  BaselineCluster cluster(paxos_commit({.seed = 14, .num_shards = 2, .shard_size = 3}));
  commit::Client& client = cluster.add_client();
  // Batch of three sharing a coordinator: one CERTIFY_BATCH; a batch of
  // one degrades to the scalar CERTIFY message.
  std::vector<std::pair<TxnId, Payload>> batch;
  for (int i = 0; i < 3; ++i) {
    batch.emplace_back(cluster.next_txn_id(),
                       make_payload({static_cast<ObjectId>(2 * i)},
                                    {static_cast<ObjectId>(2 * i)}, 0, 1));
  }
  ProcessId coordinator = cluster.coordinator_for(batch.front().second);
  client.certify_batch_remote(coordinator, batch);
  TxnId solo = cluster.next_txn_id();
  Payload sp = make_payload({6}, {6}, 0, 1);
  client.certify_batch_remote(cluster.coordinator_for(sp), {{solo, sp}});
  cluster.sim().run();
  for (const auto& [txn, payload] : batch) {
    EXPECT_EQ(client.decision(txn), Decision::kCommit) << "txn " << txn;
  }
  EXPECT_EQ(client.decision(solo), Decision::kCommit);
  const auto& traffic = cluster.net().traffic(client.id());
  EXPECT_EQ(traffic.sent_by_type().at("CERTIFY_BATCH"), 1u);
  EXPECT_EQ(traffic.sent_by_type().at("CERTIFY"), 1u);
  EXPECT_EQ(cluster.verify(), "");
}

}  // namespace
}  // namespace ratc::baseline
