// E5 + E6: reconfiguration — the Fig. 2b message flow, the availability gap
// a failure causes, and probing descent through dead epochs.
//
// Paper claims: reconfiguration is per-shard and non-disruptive to other
// shards (Sec. 3); "upon a single failure, our protocols have to stop
// processing transactions while the system is reconfigured" (Sec. 6, the
// price of f+1); probing walks epochs downward and completes under
// Assumption 1 (Theorems 4.2/4.3).
// MTTR rows are persisted to BENCH_reconfiguration.json
// (bench/bench_report.h) so CI tracks the recovery-time trajectory.
#include <cstdio>

#include "bench/bench_common.h"
#include "bench/bench_report.h"
#include "commit/cluster.h"

using namespace ratc;
using bench::payload_on;

namespace {

void figure_2b_trace() {
  std::printf("Figure 2b message flow (reconfiguration of one shard):\n");
  commit::Cluster cluster(
      {.seed = 1, .num_shards = 1, .shard_size = 2, .enable_tracer = true});
  cluster.crash(cluster.leader_of(0));
  cluster.tracer().clear();
  cluster.reconfigure(0, cluster.replica(0, 1).id());
  cluster.await_active_epoch(0, 2);
  for (const auto& e : cluster.tracer().entries()) {
    if (e.kind != sim::TraceEntry::Kind::kDeliver) continue;
    std::printf("  t=%llu  %-18s %s -> %s\n", (unsigned long long)e.time,
                std::string(e.type).c_str(), process_name(e.from).c_str(),
                process_name(e.to).c_str());
  }
  std::printf("\n");
}

/// Time from leader crash to the first commit decided in the new epoch.
Duration availability_gap(Duration probe_patience) {
  commit::Cluster cluster({.seed = 2,
                           .num_shards = 2,
                           .shard_size = 2,
                           .retry_timeout = 30,
                           .probe_patience = probe_patience});
  commit::Client& client = cluster.add_client();
  // Warm up.  (Bounded runs throughout: the retry timers re-arm forever.)
  TxnId warm = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(1, 1), warm, payload_on({0, 1}, {0}));
  cluster.sim().run_until_pred([&] { return client.decided(warm); });

  Time crash_at = cluster.sim().now();
  cluster.crash(cluster.leader_of(0));
  // Detection is immediate here (the follower is told); the gap measured is
  // pure reconfiguration + resume time.
  cluster.reconfigure(0, cluster.replica(0, 1).id());
  cluster.await_active_epoch(0, 2);

  TxnId t = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t, payload_on({2, 3}, {2}));
  cluster.sim().run_until_pred([&] { return client.decided(t); });
  return cluster.sim().now() - crash_at;
}

/// MTTR / unavailability window: time from the crash of shard 0's leader to
/// the first post-crash commit in the affected shard, comparing
/// harness-driven recovery (the omniscient test lever: reconfigure fires
/// the instant the crash happens) against controller-driven recovery
/// (src/ctrl/: the per-shard ReconController must first *detect* the crash
/// through its failure detector, then run the same reconfiguration).  The
/// difference is the price of closing the loop inside the system —
/// dominated by the FD silence threshold.
Duration mttr(bool controller_driven, Duration suspect_after,
              recon::PlacementPolicy* policy = nullptr, std::size_t num_zones = 0) {
  commit::Cluster::Options o;
  o.seed = 7;
  o.num_shards = 2;
  o.shard_size = 2;
  o.spares_per_shard = 2;
  o.retry_timeout = 30;
  o.enable_controller = controller_driven;
  o.controller_tuning.fd = {.ping_every = suspect_after / 2,
                            .suspect_after = suspect_after};
  o.placement_policy = policy;
  o.num_zones = num_zones;
  commit::Cluster cluster(o);
  commit::Client& client = cluster.add_client();
  TxnId warm = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(1, 1), warm, payload_on({0, 1}, {0}));
  cluster.sim().run_until_pred([&] { return client.decided(warm); }, 1'000'000);

  Time crash_at = cluster.sim().now();
  cluster.crash(cluster.leader_of(0));
  if (!controller_driven) {
    // Omniscient: the harness knows about the crash with zero latency.
    cluster.reconfigure(0, cluster.replica(0, 1).id());
  }
  cluster.await_active_epoch(0, 2);

  TxnId t = cluster.next_txn_id();
  client.certify_colocated(cluster.replica_by_pid(cluster.current_config(0).leader),
                           t, payload_on({2, 3}, {2}));
  cluster.sim().run_until_pred([&] { return client.decided(t); }, 1'000'000);
  return cluster.sim().now() - crash_at;
}

void mttr_comparison(bench::BenchReport& report) {
  std::printf("MTTR: leader crash -> first post-crash commit in the affected shard\n");
  std::printf("%-38s %18s\n", "recovery mode", "MTTR (ticks)");
  Duration omniscient = mttr(false, 50);
  std::printf("%-38s %18llu\n", "harness-driven (omniscient)",
              (unsigned long long)omniscient);
  report.add_row()
      .set("mode", "harness-driven")
      .set("suspect_after", std::uint64_t{0})
      .set("mttr", static_cast<std::uint64_t>(omniscient));
  for (Duration suspect_after : {50u, 30u, 15u}) {
    char label[64];
    std::snprintf(label, sizeof(label), "controller-driven (suspect_after=%llu)",
                  (unsigned long long)suspect_after);
    Duration d = mttr(true, suspect_after);
    std::printf("%-38s %18llu\n", label, (unsigned long long)d);
    report.add_row()
        .set("mode", "controller-driven")
        .set("suspect_after", static_cast<std::uint64_t>(suspect_after))
        .set("mttr", static_cast<std::uint64_t>(d));
  }
  std::printf("\n");
}

/// MTTR under the two shipped placement policies (recon/placement.h),
/// controller-driven with identical detector settings and 3 zone labels.
/// Placement decides WHO joins the new epoch, not how fast probing and the
/// CAS run, so the columns should be close — the table documents that the
/// zone-aware policy buys failure-domain spread at no recovery-time cost.
void mttr_by_placement_policy(bench::BenchReport& report) {
  std::printf("MTTR by placement policy (controller-driven, suspect_after=30, 3 zones)\n");
  std::printf("%-38s %18s\n", "policy", "MTTR (ticks)");
  recon::ReplaceSuspectsPolicy replace;
  recon::ZoneAntiAffinityPolicy zone;
  for (recon::PlacementPolicy* policy :
       {static_cast<recon::PlacementPolicy*>(&replace),
        static_cast<recon::PlacementPolicy*>(&zone)}) {
    Duration d = mttr(true, 30, policy, 3);
    std::printf("%-38s %18llu\n", policy->name(), (unsigned long long)d);
    report.add_row()
        .set("mode", "controller-driven")
        .set("policy", policy->name())
        .set("suspect_after", std::uint64_t{30})
        .set("mttr", static_cast<std::uint64_t>(d));
  }
  std::printf("\n");
}

/// Other shards keep certifying while shard 0 reconfigures.
void non_disruption() {
  commit::Cluster cluster({.seed = 3, .num_shards = 4, .shard_size = 2});
  commit::Client& client = cluster.add_client();
  cluster.crash(cluster.leader_of(0));
  cluster.reconfigure(0, cluster.replica(0, 1).id());
  // While the reconfiguration is in flight, submit to shards 1..3 only.
  std::vector<TxnId> txns;
  for (int i = 0; i < 30; ++i) {
    ShardId s = 1 + static_cast<ShardId>(i % 3);
    TxnId t = cluster.next_txn_id();
    txns.push_back(t);
    client.certify_colocated(cluster.replica(s, 1), t,
                             payload_on({static_cast<ObjectId>(4 * i + s)},
                                        {static_cast<ObjectId>(4 * i + s)}));
  }
  cluster.await_active_epoch(0, 2);
  cluster.sim().run();
  std::size_t decided = 0;
  for (TxnId t : txns) decided += client.decided(t) ? 1 : 0;
  std::printf("shards 1-3 during shard 0's reconfiguration: %zu/%zu transactions decided\n",
              decided, txns.size());
}

/// Probing descent: epochs whose leaders died before activation are walked
/// through; measured as CS get() calls + probe rounds.
void probing_descent() {
  commit::Cluster cluster({.seed = 4, .num_shards = 1, .shard_size = 2,
                           .spares_per_shard = 4, .enable_tracer = true});
  commit::Client& client = cluster.add_client();
  TxnId t1 = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t1, payload_on({0}, {0}));
  cluster.sim().run();

  ProcessId reconfigurer = cluster.spares(0)[3];
  // Create a stored-but-never-activated epoch 2 (its leader dies at CAS).
  cluster.reconfigure(0, reconfigurer);
  cluster.sim().run_until_pred([&] { return cluster.current_config(0).epoch == 2; });
  ProcessId epoch2_leader = cluster.current_config(0).leader;
  cluster.crash(epoch2_leader);
  cluster.sim().run();

  Time start = cluster.sim().now();
  cluster.tracer().clear();
  cluster.reconfigure(0, reconfigurer);
  bool ok = cluster.await_active_epoch(0, 3);
  Duration took = cluster.sim().now() - start;

  int probes = 0, probe_acks = 0;
  for (const auto& e : cluster.tracer().entries()) {
    if (e.kind != sim::TraceEntry::Kind::kDeliver) continue;
    if (e.type == "PROBE") ++probes;
    if (e.type == "PROBE_ACK") ++probe_acks;
  }
  std::printf("probing descent through a dead epoch: %s in %llu ticks "
              "(%d PROBEs delivered, %d acks)\n",
              ok ? "recovered" : "FAILED", (unsigned long long)took, probes, probe_acks);
}

}  // namespace

int main() {
  bench::header("E5/E6", "reconfiguration: flow, availability gap, descent");
  bench::claim(
      "reconfiguration affects only the failed shard; probing walks epochs\n"
      "downward past never-activated configurations (Vertical Paxos I style);\n"
      "certification stalls only for the duration of the reconfiguration");

  figure_2b_trace();

  std::printf("%-28s %18s\n", "probe_patience (ticks)", "availability gap (ticks)");
  for (Duration patience : {2u, 5u, 10u, 20u}) {
    std::printf("%-28llu %18llu\n", (unsigned long long)patience,
                (unsigned long long)availability_gap(patience));
  }
  std::printf("\n");
  bench::BenchReport report("reconfiguration");
  mttr_comparison(report);
  mttr_by_placement_policy(report);
  non_disruption();
  probing_descent();
  report.write();
  return 0;
}
