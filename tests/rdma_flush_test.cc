// Why NEW_CONFIG starts with flush() (Fig. 8 line 142): "this guarantees
// that all the messages that have been acknowledged as having reached pl's
// memory will be replicated to followers in NEW_STATE messages; this is
// necessary since transaction coordinators may have already externalized
// decisions taken based on these acknowledgements."
//
// Scenario: a coordinator's ACCEPT and DECISION writes land in follower
// p101's NIC buffer (acknowledged => the coordinator externalizes COMMIT to
// the client), but p101's CPU has not polled them yet (slow poller).  The
// leader dies and p101 becomes the new leader.
//  * With the paper's flush: the buffered writes surface before the state
//    transfer; the committed transaction survives; a conflicting successor
//    aborts.  Everything consistent.
//  * With the flush ablated: the externalized transaction vanishes, a
//    conflicting successor commits against the same versions, and the
//    committed history is no longer linearizable — caught by the checker.
#include <gtest/gtest.h>

#include "checker/conflict_graph.h"
#include "checker/linearization.h"
#include "rdma/cluster.h"

namespace ratc::rdma {
namespace {

using commit::Client;
using tcs::Decision;
using tcs::Payload;

Payload rmw_object0() {
  Payload p;
  p.reads = {{0, 0}};
  p.writes = {{0, 7}};
  p.commit_version = 1;
  return p;
}

struct Outcome {
  Decision first = Decision::kAbort;
  Decision second = Decision::kAbort;
  bool survived = false;       ///< t1 present at the new leader
  bool linearizable = false;
  bool version_unique = false;
};

Outcome run_scenario(bool ablate_flush) {
  Cluster::Options opt;
  opt.seed = 5;
  opt.num_shards = 2;
  opt.shard_size = 2;
  opt.poll_delay = 50;  // the CPU lags far behind the NIC
  opt.ablate_flush = ablate_flush;
  Cluster cluster(opt);
  Client& client = cluster.add_client();

  // t1 on shard 0, coordinated from shard 1: the ACCEPT/DECISION writes to
  // p101 land (and are acknowledged) quickly, but p101 polls them at +50.
  Replica& coordinator = cluster.replica(1, 0);
  TxnId t1 = cluster.next_txn_id();
  client.certify_remote(coordinator.id(), t1, rmw_object0());
  bool decided = cluster.sim().run_until_pred([&] { return client.decided(t1); });
  EXPECT_TRUE(decided);
  Outcome out;
  out.first = *client.decision(t1);

  // Before p101's CPU polls, the leader of shard 0 dies and p101 takes
  // over via a global reconfiguration.
  Time now = cluster.sim().now();
  EXPECT_LT(now, 20u);  // still within the poll window
  cluster.crash(cluster.replica(0, 0).id());
  cluster.replica(0, 1).reconfigure();
  EXPECT_TRUE(cluster.await_active_epoch(2));

  Replica& new_leader = cluster.replica(0, 1);
  out.survived = new_leader.log().slot_of(t1) != kNoSlot;

  // t2 conflicts with t1 (same read version, same written object).
  TxnId t2 = cluster.next_txn_id();
  client.certify_colocated(cluster.replica_by_pid(cluster.leader_of(1)), t2,
                           rmw_object0());
  cluster.sim().run_until_pred([&] { return client.decided(t2); });
  out.second = client.decision(t2).value_or(Decision::kAbort);

  auto lin = checker::check_linearization(cluster.history(), cluster.certifier());
  out.linearizable = lin.ok;
  auto cg = checker::check_conflict_graph(cluster.history());
  out.version_unique = cg.ok;
  return out;
}

TEST(RdmaFlush, FlushPreservesExternalizedDecisions) {
  Outcome out = run_scenario(/*ablate_flush=*/false);
  EXPECT_EQ(out.first, Decision::kCommit);
  EXPECT_TRUE(out.survived);  // the buffered write surfaced at NEW_CONFIG
  EXPECT_EQ(out.second, Decision::kAbort);  // conflict correctly detected
  EXPECT_TRUE(out.linearizable);
  EXPECT_TRUE(out.version_unique);
}

TEST(RdmaFlush, AblatingFlushBreaksLinearizability) {
  Outcome out = run_scenario(/*ablate_flush=*/true);
  EXPECT_EQ(out.first, Decision::kCommit);  // externalized before the crash
  EXPECT_FALSE(out.survived);               // ...but dropped by the transfer
  EXPECT_EQ(out.second, Decision::kCommit); // conflict invisible -> commits
  // Both committed transactions read version 0 of object 0 and wrote it:
  // the committed projection has no legal linearization.
  EXPECT_FALSE(out.linearizable);
  EXPECT_FALSE(out.version_unique);
}

}  // namespace
}  // namespace ratc::rdma
