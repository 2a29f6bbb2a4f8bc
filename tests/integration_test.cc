// Full-stack integration: the commit protocol running over the
// Paxos-REPLICATED configuration service, with CS leader failures injected
// during shard reconfigurations — the complete vertical story (2f+1 only
// for configuration data, f+1 for transaction data).
#include <gtest/gtest.h>

#include "commit/cluster.h"
#include "store/frontends.h"
#include "store/runner.h"
#include "store/workload.h"

namespace ratc {
namespace {

using commit::Client;
using commit::Cluster;
using tcs::Decision;
using tcs::Payload;

Payload one_object(ObjectId o, Version v = 0) {
  Payload p;
  p.reads = {{o, v}};
  p.writes = {{o, static_cast<Value>(o)}};
  p.commit_version = v + 1;
  return p;
}

TEST(Integration, WorkloadOverReplicatedCs) {
  Cluster cluster({.seed = 1, .num_shards = 2, .shard_size = 2, .replicated_cs = true});
  store::CommitFrontend frontend(cluster);
  store::VersionedStore db;
  store::WorkloadGenerator gen({.objects = 60, .ops_per_txn = 3}, 4);
  store::WorkloadRunner runner(
      cluster.sim(), frontend, db,
      [&](const store::VersionedStore& d) { return gen.next(d); });
  auto stats = runner.run(200);
  EXPECT_EQ(stats.committed + stats.aborted, 200u);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(Integration, ReconfigurationSurvivesCsLeaderCrash) {
  // The CS leader dies while a shard reconfiguration is mid-probing: the
  // CsClient retry loop re-targets the new CS leader, and the
  // reconfiguration completes.
  Cluster cluster({.seed = 2, .num_shards = 2, .shard_size = 2, .replicated_cs = true});
  Client& client = cluster.add_client();
  TxnId t1 = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(1, 1), t1, one_object(1));
  cluster.sim().run();
  ASSERT_EQ(client.decision(t1), Decision::kCommit);

  cluster.crash(cluster.leader_of(0));
  cluster.reconfigure(0, cluster.replica(0, 1).id());
  // Let the GET_LAST land, then kill the CS leader before the CAS and
  // elect CS server 1.
  cluster.sim().run_until(cluster.sim().now() + 2);
  configsvc::ReplicatedConfigService* cs = cluster.replicated_cs();
  ASSERT_NE(cs, nullptr);
  cluster.crash(cs->server(0).id());
  cs->server(1).paxos().start_election();

  ASSERT_TRUE(cluster.await_active_epoch(0, 2, 3'000'000));
  configsvc::ShardConfig cfg = cluster.current_config(0);
  EXPECT_EQ(cfg.epoch, 2u);

  TxnId t2 = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(1, 1), t2, one_object(3));
  cluster.sim().run();
  EXPECT_EQ(client.decision(t2), Decision::kCommit);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(Integration, ConcurrentReconfigurationsOfDifferentShards) {
  Cluster cluster({.seed = 3, .num_shards = 3, .shard_size = 2});
  cluster.crash(cluster.leader_of(0));
  cluster.crash(cluster.leader_of(1));
  cluster.reconfigure(0, cluster.replica(0, 1).id());
  cluster.reconfigure(1, cluster.replica(1, 1).id());
  ASSERT_TRUE(cluster.await_active_epoch(0, 2));
  ASSERT_TRUE(cluster.await_active_epoch(1, 2));

  Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  // Spans all three shards, two of which just reconfigured.
  Payload p;
  p.reads = {{0, 0}, {1, 0}, {2, 0}};
  p.writes = {{0, 1}, {1, 1}, {2, 1}};
  p.commit_version = 1;
  client.certify_colocated(cluster.replica(2, 1), t, p);
  cluster.sim().run();
  EXPECT_EQ(client.decision(t), Decision::kCommit);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(Integration, RepeatedFailoverWithOngoingTraffic) {
  Cluster cluster({.seed = 4,
                   .num_shards = 2,
                   .shard_size = 2,
                   .spares_per_shard = 4,
                   .retry_timeout = 120});
  store::CommitFrontend frontend(cluster);
  store::VersionedStore db;
  store::WorkloadGenerator gen({.objects = 50, .ops_per_txn = 2}, 8);
  store::WorkloadRunner runner(
      cluster.sim(), frontend, db,
      [&](const store::VersionedStore& d) { return gen.next(d); });

  for (Epoch target = 2; target <= 4; ++target) {
    runner.run(60);
    ShardId s = static_cast<ShardId>(target % 2);
    configsvc::ShardConfig cfg = cluster.current_config(s);
    cluster.crash(cfg.leader);
    ProcessId survivor = kNoProcess;
    for (ProcessId m : cfg.members) {
      if (!cluster.sim().crashed(m)) survivor = m;
    }
    ASSERT_NE(survivor, kNoProcess);
    cluster.reconfigure(s, survivor);
    ASSERT_TRUE(cluster.await_active_epoch(s, cfg.epoch + 1, 2'000'000))
        << "epoch " << cfg.epoch + 1 << " of shard " << s;
  }
  auto stats = runner.run(60);
  EXPECT_GE(stats.committed + stats.aborted, 230u);
  EXPECT_EQ(cluster.verify(), "");
}

}  // namespace
}  // namespace ratc
