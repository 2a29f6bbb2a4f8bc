// E3: load on shard leaders — the potential bottleneck the protocol is
// designed to relieve by delegating replication to coordinators.
//
// Paper claim (Sec. 3): "each involved leader only has to receive one
// PREPARE and one DECISION message, and send one PREPARE_ACK message"; the
// network-intensive persisting of transactions is spread over coordinators.
// The baseline's Paxos leader instead relays 2 replication rounds (prepare
// + decision) per transaction to 2f followers each.  That leader is one
// process, shard server 0, which hosts its Paxos member, so the baseline row
// reads that one pid's traffic.
#include <cstdio>

#include "baseline/cluster.h"
#include "bench/bench_common.h"
#include "commit/cluster.h"

using namespace ratc;
using bench::payload_on;

namespace {

constexpr int kTxns = 500;

struct Load {
  double leader_in = 0, leader_out = 0;      // messages/txn at the shard leader
  double coordinator_out = 0;                // messages/txn at coordinators (ours)
};

Load measure_ours() {
  commit::Cluster cluster({.seed = 1, .num_shards = 1, .shard_size = 3});
  commit::Client& client = cluster.add_client();
  for (int i = 0; i < kTxns; ++i) {
    // Coordinator is a follower: the leader only certifies.
    client.certify_colocated(cluster.replica(0, 1), cluster.next_txn_id(),
                             payload_on({static_cast<ObjectId>(i)},
                                        {static_cast<ObjectId>(i)}));
  }
  cluster.sim().run();
  const auto& leader = cluster.net().traffic(cluster.leader_of(0));
  const auto& coord = cluster.net().traffic(cluster.replica(0, 1).id());
  Load load;
  load.leader_in = static_cast<double>(leader.msgs_received) / kTxns;
  load.leader_out = static_cast<double>(leader.msgs_sent) / kTxns;
  load.coordinator_out = static_cast<double>(coord.msgs_sent) / kTxns;
  return load;
}

Load measure_baseline() {
  baseline::BaselineCluster cluster({.seed = 2, .num_shards = 1, .shard_size = 3});
  commit::Client& client = cluster.add_client();
  for (int i = 0; i < kTxns; ++i) {
    tcs::Payload p = payload_on({static_cast<ObjectId>(i)}, {static_cast<ObjectId>(i)});
    client.certify_remote(cluster.coordinator_for(p), cluster.next_txn_id(), p);
  }
  cluster.sim().run();
  // The baseline leader is shard server 0, which hosts its Paxos member.
  const auto& leader = cluster.net().traffic(cluster.server(0, 0).id());
  Load load;
  load.leader_in = static_cast<double>(leader.msgs_received) / kTxns;
  load.leader_out = static_cast<double>(leader.msgs_sent) / kTxns;
  load.coordinator_out = load.leader_out;  // leader IS the coordinator
  return load;
}

}  // namespace

int main() {
  bench::header("E3", "per-transaction message load on the shard leader");
  bench::claim(
      "leader handles 3 messages per transaction (PREPARE in, PREPARE_ACK\n"
      "out, DECISION in); replication fan-out is delegated to coordinators");

  Load ours = measure_ours();
  Load base = measure_baseline();

  std::printf("%-28s %12s %12s %18s\n", "system (f=1)", "leader in", "leader out",
              "coordinator out");
  std::printf("%-28s %12.2f %12.2f %18.2f\n", "this work (MP)", ours.leader_in,
              ours.leader_out, ours.coordinator_out);
  std::printf("%-28s %12.2f %12.2f %18s\n", "baseline 2PC/Paxos", base.leader_in,
              base.leader_out, "(= leader)");
  std::printf("\nleader total: %.2f msgs/txn (ours) vs %.2f msgs/txn (baseline) => %.1fx\n",
              ours.leader_in + ours.leader_out, base.leader_in + base.leader_out,
              (base.leader_in + base.leader_out) /
                  (ours.leader_in + ours.leader_out));
  return 0;
}
