// E1 + E2: commit latency in message delays.
//
// Paper claims (Sec. 1, Sec. 3):
//  * "our protocol allows the client to learn a decision on a transaction
//    in 5 message delays, instead of 7 required by vanilla protocols that
//    use Paxos as a black box";
//  * "we can further reduce this to 4 by co-locating the client with the
//    transaction coordinator";
//  * the failure-free message flow is Fig. 2a:
//    PREPARE -> PREPARE_ACK -> ACCEPT -> ACCEPT_ACK -> DECISION.
#include <cstdio>

#include "baseline/cluster.h"
#include "bench/bench_common.h"
#include "commit/cluster.h"
#include "rdma/cluster.h"

using namespace ratc;
using bench::payload_on;

namespace {

Duration ours_colocated(std::uint32_t shards) {
  commit::Cluster cluster({.seed = 1, .num_shards = shards, .shard_size = 2});
  commit::Client& client = cluster.add_client();
  std::vector<ObjectId> objs;
  for (std::uint32_t s = 0; s < shards; ++s) objs.push_back(s);
  TxnId t = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t, payload_on(objs, objs));
  cluster.sim().run();
  return *client.latency(t);
}

Duration ours_remote(std::uint32_t shards) {
  commit::Cluster cluster({.seed = 2, .num_shards = shards, .shard_size = 2});
  commit::Client& client = cluster.add_client();
  std::vector<ObjectId> objs;
  for (std::uint32_t s = 0; s < shards; ++s) objs.push_back(s);
  TxnId t = cluster.next_txn_id();
  client.certify_remote(cluster.replica(0, 1).id(), t, payload_on(objs, objs));
  cluster.sim().run();
  return *client.latency(t);
}

Duration rdma_colocated(std::uint32_t shards) {
  rdma::Cluster cluster({.seed = 3, .num_shards = shards, .shard_size = 2});
  commit::Client& client = cluster.add_client();
  std::vector<ObjectId> objs;
  for (std::uint32_t s = 0; s < shards; ++s) objs.push_back(s);
  TxnId t = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t, payload_on(objs, objs));
  cluster.sim().run();
  return *client.latency(t);
}

Duration baseline_remote(std::uint32_t shards) {
  baseline::BaselineCluster cluster({.seed = 4, .num_shards = shards, .shard_size = 3});
  commit::Client& client = cluster.add_client();
  std::vector<ObjectId> objs;
  for (std::uint32_t s = 0; s < shards; ++s) objs.push_back(s);
  TxnId t = cluster.next_txn_id();
  tcs::Payload p = payload_on(objs, objs);
  client.certify_remote(cluster.coordinator_for(p), t, p);
  cluster.sim().run();
  return *client.latency(t);
}

void figure_2a_trace() {
  std::printf("Figure 2a message flow (2 shards, one transaction):\n");
  commit::Cluster cluster(
      {.seed = 5, .num_shards = 2, .shard_size = 2, .enable_tracer = true});
  commit::Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t, payload_on({0, 1}, {0, 1}));
  cluster.sim().run();
  for (const auto& e : cluster.tracer().entries()) {
    if (e.kind != sim::TraceEntry::Kind::kDeliver) continue;
    std::printf("  t=%llu  %-12s %s -> %s\n", (unsigned long long)e.time,
                std::string(e.type).c_str(), process_name(e.from).c_str(),
                process_name(e.to).c_str());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  bench::header("E1/E2", "commit latency in message delays (unit-delay network)");
  bench::claim(
      "5 delays from the coordinator (4 with co-located client) vs 7 for\n"
      "2PC-over-Paxos; independent of the number of shards involved");

  figure_2a_trace();

  std::printf("%-34s %8s %8s %8s %14s\n", "system (client placement)", "1 shard",
              "2 shards", "4 shards", "paper (coord.)");
  std::printf("%-34s %8llu %8llu %8llu %14s\n", "this work, MP (co-located)",
              (unsigned long long)ours_colocated(1), (unsigned long long)ours_colocated(2),
              (unsigned long long)ours_colocated(4), "4");
  std::printf("%-34s %8llu %8llu %8llu %14s\n", "this work, MP (remote, -1 submit)",
              (unsigned long long)(ours_remote(1) - 1),
              (unsigned long long)(ours_remote(2) - 1),
              (unsigned long long)(ours_remote(4) - 1), "5");
  std::printf("%-34s %8llu %8llu %8llu %14s\n", "this work, RDMA (co-located)",
              (unsigned long long)rdma_colocated(1), (unsigned long long)rdma_colocated(2),
              (unsigned long long)rdma_colocated(4), "4");
  std::printf("%-34s %8llu %8llu %8llu %14s\n", "baseline 2PC/Paxos (remote, -1)",
              (unsigned long long)(baseline_remote(1) - 1),
              (unsigned long long)(baseline_remote(2) - 1),
              (unsigned long long)(baseline_remote(4) - 1), "7");
  std::printf("\n(single-shard baseline still pays two Paxos round trips: 5 delays)\n");
  return 0;
}
