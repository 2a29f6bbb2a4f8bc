// The RDMA story (paper Sec. 5): the same certification flow over one-sided
// RDMA writes, the Figure 4a counter-example showing why per-shard
// reconfiguration becomes UNSAFE with RDMA, and the corrected global
// protocol (Fig. 4b) surviving the identical schedule.
//
//   $ ./examples/rdma_demo
#include <cstdio>

#include "rdma/cluster.h"

using namespace ratc;

namespace {

rdma::Cluster::Options scenario(rdma::ReconfigMode mode) {
  rdma::Cluster::Options opt;
  opt.seed = 42;
  opt.num_shards = 3;
  opt.shard_size = 2;
  opt.mode = mode;
  // The race of Fig. 4a: the coordinator's RDMA write to p201 crawls, and
  // the coordinator hears about configuration changes very late.
  opt.link_delay = [](ProcessId from, ProcessId to) -> Duration {
    if (from == 301 && to == 201) return 60;
    if (from == 9000 && to == 301) return 200;
    return 0;
  };
  return opt;
}

int run_figure4a(rdma::ReconfigMode mode, const char* label) {
  std::printf("--- %s ---\n", label);
  rdma::Cluster cluster(scenario(mode));
  commit::Client& client = cluster.add_client();
  rdma::Replica& pc = cluster.replica(2, 1);  // the coordinator "pc"
  TxnId t = cluster.next_txn_id();

  tcs::Payload payload;
  payload.reads = {{0, 0}, {1, 0}};
  payload.writes = {{0, 7}, {1, 9}};
  payload.commit_version = 1;

  client.certify_remote(pc.id(), t, payload);
  cluster.sim().run_until(4);
  std::printf("t=4: txn%llu prepared at both leaders; ACCEPT to p201 in flight\n",
              (unsigned long long)t);

  cluster.crash(cluster.replica(1, 0).id());
  std::printf("t=4: leader of shard 1 (p200) crashes\n");
  if (mode == rdma::ReconfigMode::kPerShardUnsafe) {
    cluster.replica(1, 1).reconfigure_shard(1);
    cluster.await_active_shard_epoch(1, 2);
    std::printf("t=%llu: shard 1 reconfigured ALONE; p201 promoted to leader\n",
                (unsigned long long)cluster.sim().now());
  } else {
    cluster.replica(1, 1).reconfigure();
    cluster.await_active_epoch(2);
    std::printf("t=%llu: GLOBAL reconfiguration: every process probed, connections\n"
                "        closed, CONFIG_PREPARE disseminated, epoch 2 activated\n",
                (unsigned long long)cluster.sim().now());
  }

  // Shard 0's leader retries the stuck transaction at the new leader of
  // shard 1, which never saw it -> abort.
  rdma::Replica& leader0 = cluster.replica_by_pid(cluster.leader_of(0));
  Slot k = leader0.log().slot_of(t);
  if (k != kNoSlot) {
    leader0.retry(k);
  }
  cluster.sim().run_until_pred([&] { return client.decided(t); }, 200000);
  if (client.decided(t)) {
    std::printf("t=%llu: retry path externalizes '%s'\n",
                (unsigned long long)cluster.sim().now(),
                tcs::to_string(*client.decision(t)));
  }

  // Run past the landing time of pc's stale RDMA write.
  cluster.sim().run();

  int contradictory = 0;
  bool commit_seen = false, abort_seen = false;
  // Every decision the client observed, duplicates included.
  for (const tcs::HistoryEvent& e : cluster.history().events()) {
    if (e.kind != tcs::HistoryEvent::Kind::kDecide || e.txn != t) continue;
    commit_seen |= e.decision == tcs::Decision::kCommit;
    abort_seen |= e.decision == tcs::Decision::kAbort;
  }
  contradictory = commit_seen && abort_seen;
  if (contradictory) {
    std::printf("RESULT: SAFETY VIOLATION — the client saw BOTH abort and commit\n");
    std::printf("monitor caught:\n%s", cluster.monitor().violations().summary().c_str());
  } else {
    std::printf("RESULT: exactly one decision externalized (%zu stale RDMA write(s) "
                "rejected by closed connections)\n",
                cluster.fabric().writes_rejected());
  }
  std::printf("\n");
  return contradictory;
}

}  // namespace

int main() {
  std::printf("Reproducing the paper's Figure 4a counter-example and its fix.\n\n");
  int unsafe_violated =
      run_figure4a(rdma::ReconfigMode::kPerShardUnsafe,
                   "strawman: RDMA data path + per-shard reconfiguration (Fig. 4a)");
  int safe_violated = run_figure4a(
      rdma::ReconfigMode::kGlobalSafe,
      "paper protocol: RDMA data path + global reconfiguration (Fig. 4b / Fig. 8)");

  std::printf("summary: strawman %s, corrected protocol %s\n",
              unsafe_violated ? "violated safety (as the paper proves)"
                              : "UNEXPECTEDLY survived",
              safe_violated ? "UNEXPECTEDLY violated safety" : "stayed safe");
  // Success = the strawman violates and the corrected protocol does not.
  return (unsafe_violated == 1 && safe_violated == 0) ? 0 : 1;
}
