// Executable reproduction of the paper's Figure 4a counter-example
// (experiment E7): combining the RDMA data path with PER-SHARD
// reconfiguration externalizes two contradictory decisions for the same
// transaction; the corrected GLOBAL reconfiguration protocol (Fig. 4b /
// Fig. 8) prevents it under the identical schedule.
//
// Cast (paper -> this test):
//   shard s1 = shard 0 {p100 leader, p101 follower}
//   shard s2 = shard 1 {p200 leader = paper's p3, p201 follower = paper's p4}
//   third shard = shard 2 {p300, p301};  p301 is the coordinator "pc"
//   p250 = the fresh process p5 joining s2 after reconfiguration
//
// Schedule knobs: the RDMA write pc -> p4 is slow (60 ticks), and the
// configuration-change notification CS -> pc is slower still, so pc keeps
// believing in the old configuration — exactly the Fig. 4a race.
#include <gtest/gtest.h>

#include "rdma/cluster.h"

namespace ratc::rdma {
namespace {

using commit::Client;
using tcs::Decision;
using tcs::Payload;

/// Every decision externalized for `t`, duplicates included, in the order
/// the client observed them.
std::vector<Decision> decide_events(const tcs::History& history, TxnId t) {
  std::vector<Decision> out;
  for (const tcs::HistoryEvent& e : history.events()) {
    if (e.kind == tcs::HistoryEvent::Kind::kDecide && e.txn == t) out.push_back(e.decision);
  }
  return out;
}

Payload cross_shard_payload() {
  // Objects 0 (shard 0) and 1 (shard 1) with 3 shards.
  Payload p;
  p.reads = {{0, 0}, {1, 0}};
  p.writes = {{0, 7}, {1, 9}};
  p.commit_version = 1;
  return p;
}

Cluster::Options scenario_options(ReconfigMode mode) {
  Cluster::Options opt;
  opt.seed = 42;
  opt.num_shards = 3;
  opt.shard_size = 2;
  opt.spares_per_shard = 2;
  opt.mode = mode;
  opt.link_delay = [](ProcessId from, ProcessId to) -> Duration {
    if (from == 301 && to == 201) return 60;   // pc's ACCEPT write to p4 (step 6)
    if (from == 9000 && to == 301) return 200; // CS notification to pc delayed
    return 0;                                  // default (1 tick)
  };
  return opt;
}

TEST(Figure4a, UnsafePerShardReconfigurationViolatesSafety) {
  Cluster cluster(scenario_options(ReconfigMode::kPerShardUnsafe));
  Client& client = cluster.add_client();
  Replica& pc = cluster.replica(2, 1);  // the coordinator "pc"
  TxnId t = cluster.next_txn_id();

  // Step 1-2: prepare at both leaders; persist s0's vote at p101; the write
  // to p201 is in flight for 60 ticks.
  client.certify_remote(pc.id(), t, cross_shard_payload());
  cluster.sim().run_until(4);
  ASSERT_NE(cluster.replica(0, 0).log().slot_of(t), kNoSlot);
  ASSERT_NE(cluster.replica(1, 0).log().slot_of(t), kNoSlot);
  ASSERT_EQ(cluster.replica(1, 1).log().slot_of(t), kNoSlot);
  ASSERT_FALSE(client.decided(t));

  // p3 (leader of shard 1) is suspected of failure; p4 reconfigures the
  // shard, becoming its leader with fresh follower p5.
  cluster.crash(cluster.replica(1, 0).id());
  cluster.replica(1, 1).reconfigure_shard(1);
  ASSERT_TRUE(cluster.await_active_shard_epoch(1, 2));
  ASSERT_EQ(cluster.current_config(1).leader, cluster.replica(1, 1).id());

  // Step 3-5: shard 0's leader learns the new configuration and retries t;
  // the new leader of shard 1 does not know t => abort externalized.
  Replica& leader0 = cluster.replica(0, 0);
  ASSERT_TRUE(cluster.sim().run_until_pred(
      [&] { return leader0.leader_of(1) == cluster.replica(1, 1).id(); }));
  leader0.retry(leader0.log().slot_of(t));
  ASSERT_TRUE(cluster.sim().run_until_pred([&] { return client.decided(t); }));
  EXPECT_EQ(client.decision(t), Decision::kAbort);

  // Step 6-7: pc, who never heard about the reconfiguration, persists the
  // old commit vote at p4 via RDMA — p4 cannot reject it — and commits.
  cluster.sim().run();
  std::vector<Decision> seen = decide_events(cluster.history(), t);
  ASSERT_GE(seen.size(), 2u);
  bool saw_abort = false, saw_commit = false;
  for (Decision d : seen) {
    saw_abort |= d == Decision::kAbort;
    saw_commit |= d == Decision::kCommit;
  }
  EXPECT_TRUE(saw_abort);
  EXPECT_TRUE(saw_commit) << "the Fig. 4a race should have committed via the "
                             "stale RDMA write";

  // The violation is caught by every layer of checking.  Besides the two
  // decisions (4b, and 4a per shard) and the stale write (13): shard 1's
  // new leader accepted t at slot 1 with an abort vote at epoch 2, and the
  // stale write then completed the epoch-1 acceptance of that slot with t's
  // commit vote, so one slot (11a) and one transaction (11b) have two
  // accepted results.  That landing is also p4's acknowledgement of a slot
  // its log holds differently from the epoch-1 leader's (1).
  EXPECT_EQ(cluster.history().conflicting_decisions(),
            std::vector<TxnId>{t});
  std::string violations = cluster.monitor().violations().summary();
  auto reported = [&](const std::string& inv) {
    for (const Violation& v : cluster.monitor().violations().all()) {
      if (v.invariant == inv) return true;
    }
    return false;
  };
  for (const char* inv :
       {"Invariant1", "Invariant4a", "Invariant4b", "Invariant11a", "Invariant11b", "Invariant13"}) {
    EXPECT_TRUE(reported(inv)) << inv << " missing from\n" << violations;
  }
}

TEST(Figure4b, GlobalReconfigurationPreventsTheViolation) {
  Cluster cluster(scenario_options(ReconfigMode::kGlobalSafe));
  Client& client = cluster.add_client();
  Replica& pc = cluster.replica(2, 1);
  TxnId t = cluster.next_txn_id();

  client.certify_remote(pc.id(), t, cross_shard_payload());
  cluster.sim().run_until(4);
  ASSERT_NE(cluster.replica(0, 0).log().slot_of(t), kNoSlot);
  ASSERT_FALSE(client.decided(t));

  // Same failure, but the reconfiguration is global: every process is
  // probed (closing its connections) and told the new configuration before
  // it activates.
  cluster.crash(cluster.replica(1, 0).id());
  cluster.replica(1, 1).reconfigure();
  ASSERT_TRUE(cluster.await_active_epoch(2));

  // Shard 0's leader retries t in the new epoch.
  Replica& leader0 = cluster.replica_by_pid(cluster.leader_of(0));
  Slot k = leader0.log().slot_of(t);
  ASSERT_NE(k, kNoSlot);
  leader0.retry(k);
  ASSERT_TRUE(cluster.sim().run_until_pred([&] { return client.decided(t); }));

  // Run well past the point where pc's stale write would land (t=62+).
  cluster.sim().run_until(cluster.sim().now() + 300);
  cluster.sim().run();

  // Exactly one decision was ever externalized; the stale write was
  // rejected by the closed/reincarnated connection.
  EXPECT_EQ(decide_events(cluster.history(), t).size(), 1u);
  EXPECT_TRUE(cluster.history().conflicting_decisions().empty());
  EXPECT_EQ(cluster.verify(), "") << cluster.monitor().violations().summary();
  EXPECT_GT(cluster.fabric().writes_rejected(), 0u);  // the stale write died
}

}  // namespace
}  // namespace ratc::rdma
