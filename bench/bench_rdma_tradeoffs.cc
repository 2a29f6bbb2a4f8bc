// E7 + E8: the price of RDMA.
//
// Paper claims (Sec. 5, Sec. 6):
//  * combining the RDMA data path with per-shard reconfiguration is UNSAFE
//    (Figure 4a): two contradictory decisions can be externalized;
//  * the corrected protocol reconfigures the WHOLE SYSTEM instead of one
//    shard — "the price of exploiting RDMA" — so reconfiguration disruption
//    grows with the number of shards, while the message-passing protocol's
//    stays confined to the affected shard.
#include <cstdio>

#include "bench/bench_common.h"
#include "commit/cluster.h"
#include "rdma/cluster.h"

using namespace ratc;
using bench::payload_on;

namespace {

void figure4a_section() {
  std::printf("Figure 4a scenario (see tests/rdma_counterexample_test.cc and\n"
              "examples/rdma_demo for the full story):\n");
  for (auto mode : {rdma::ReconfigMode::kPerShardUnsafe, rdma::ReconfigMode::kGlobalSafe}) {
    rdma::Cluster::Options opt;
    opt.seed = 42;
    opt.num_shards = 3;
    opt.shard_size = 2;
    opt.mode = mode;
    opt.link_delay = [](ProcessId from, ProcessId to) -> Duration {
      if (from == 301 && to == 201) return 60;
      if (from == 9000 && to == 301) return 200;
      return 0;
    };
    rdma::Cluster cluster(opt);
    commit::Client& client = cluster.add_client();
    rdma::Replica& pc = cluster.replica(2, 1);
    TxnId t = cluster.next_txn_id();
    client.certify_remote(pc.id(), t, payload_on({0, 1}, {0, 1}));
    cluster.sim().run_until(4);
    cluster.crash(cluster.replica(1, 0).id());
    if (mode == rdma::ReconfigMode::kPerShardUnsafe) {
      cluster.replica(1, 1).reconfigure_shard(1);
      cluster.await_active_shard_epoch(1, 2);
    } else {
      cluster.replica(1, 1).reconfigure();
      cluster.await_active_epoch(2);
    }
    rdma::Replica& leader0 = cluster.replica_by_pid(cluster.leader_of(0));
    if (Slot k = leader0.log().slot_of(t); k != kNoSlot) leader0.retry(k);
    cluster.sim().run();
    bool commit = false, abort = false;
    for (const tcs::HistoryEvent& e : cluster.history().events()) {
      if (e.kind != tcs::HistoryEvent::Kind::kDecide || e.txn != t) continue;
      commit |= e.decision == tcs::Decision::kCommit;
      abort |= e.decision == tcs::Decision::kAbort;
    }
    std::printf("  %-36s -> %s\n",
                mode == rdma::ReconfigMode::kPerShardUnsafe
                    ? "per-shard reconfiguration (strawman)"
                    : "global reconfiguration (Fig. 8)",
                commit && abort ? "CONTRADICTORY DECISIONS (unsafe, as proven)"
                                : "single decision (safe)");
  }
  std::printf("\n");
}

struct Disruption {
  std::size_t processes_disturbed = 0;  ///< processes that stop certifying
  std::uint64_t reconfig_messages = 0;
};

/// Message-passing protocol: reconfigure shard 0; count disturbed processes
/// (status() == reconfiguring at any point = probed) and messages.
Disruption mp_disruption(std::uint32_t shards) {
  commit::Cluster cluster({.seed = 7, .num_shards = shards, .shard_size = 2,
                           .enable_tracer = true});
  cluster.crash(cluster.leader_of(0));
  std::uint64_t before = cluster.net().total_messages();
  cluster.reconfigure(0, cluster.replica(0, 1).id());
  cluster.await_active_epoch(0, 2);
  cluster.sim().run();
  Disruption d;
  d.reconfig_messages = cluster.net().total_messages() - before;
  for (const auto& e : cluster.tracer().entries()) {
    (void)e;
  }
  // Disturbed = probed members of the affected shard only.
  d.processes_disturbed = cluster.current_config(0).members.size();
  return d;
}

Disruption rdma_disruption(std::uint32_t shards) {
  rdma::Cluster cluster({.seed = 8, .num_shards = shards, .shard_size = 2});
  cluster.crash(cluster.replica(0, 0).id());
  std::uint64_t before = cluster.net().total_messages();
  cluster.replica(0, 1).reconfigure();
  cluster.await_active_epoch(2);
  cluster.sim().run();
  Disruption d;
  d.reconfig_messages = cluster.net().total_messages() - before;
  // Disturbed = every member of every shard (all probed + reconnected).
  for (ShardId s = 0; s < shards; ++s) {
    d.processes_disturbed += cluster.current_config(s).members.size();
  }
  return d;
}

}  // namespace

int main() {
  bench::header("E7/E8", "the price of RDMA: safety (Fig. 4a) and global reconfiguration");
  bench::claim(
      "RDMA requires reconfiguring the whole system instead of one shard:\n"
      "disruption grows linearly with the shard count, while the\n"
      "message-passing protocol's stays constant");

  figure4a_section();

  std::printf("reconfiguration after one leader failure:\n");
  std::printf("%8s | %24s | %24s\n", "", "MP (per-shard)", "RDMA (global)");
  std::printf("%8s | %11s %12s | %11s %12s\n", "shards", "disturbed", "messages",
              "disturbed", "messages");
  for (std::uint32_t shards : {2u, 4u, 8u, 16u}) {
    Disruption mp = mp_disruption(shards);
    Disruption rd = rdma_disruption(shards);
    std::printf("%8u | %11zu %12llu | %11zu %12llu\n", shards, mp.processes_disturbed,
                (unsigned long long)mp.reconfig_messages, rd.processes_disturbed,
                (unsigned long long)rd.reconfig_messages);
  }
  std::printf("\n(disturbed = processes that must stop certification during the change;\n"
              " messages = network messages from failure to the new epoch's activation)\n");
  return 0;
}
