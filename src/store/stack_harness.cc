#include "store/stack_harness.h"

#include <stdexcept>
#include <utility>

#include "checker/conflict_graph.h"
#include "checker/linearization.h"
#include "checker/snapshot.h"

namespace ratc::store {

namespace {

/// Resolves StackWorkload::placement.  Null means "engine default"
/// (recon::ReplaceSuspectsPolicy).
recon::PlacementPolicy* select_placement(const StackWorkload& w) {
  // Stateless, so one instance serves every harness on every thread.
  static recon::ZoneAntiAffinityPolicy zone_anti_affinity;
  if (w.placement.empty() || w.placement == "replace-suspects") return nullptr;
  if (w.placement == "zone-anti-affinity") return &zone_anti_affinity;
  throw std::invalid_argument("unknown StackWorkload::placement: " + w.placement);
}

}  // namespace

// --- shared -------------------------------------------------------------------------

template <typename Harness, typename Cluster>
std::string HarnessBase<Harness, Cluster>::check_snapshot_reads() {
  checker::SnapshotReadResult r = checker::check_snapshot_reads(cluster_.history());
  return r.ok ? "" : "snapshot reads: " + r.error;
}

template <typename Harness, typename Cluster>
std::string HarnessBase<Harness, Cluster>::check_linearization() {
  checker::LinearizationResult lin =
      checker::check_linearization(cluster_.history(), cluster_.certifier());
  return lin.ok ? "" : "linearization: " + lin.error;
}

template class HarnessBase<CommitHarness, commit::Cluster>;
template class HarnessBase<RdmaHarness, rdma::Cluster>;
template class HarnessBase<BaselineHarness, baseline::BaselineCluster>;

// --- commit and rdma ---------------------------------------------------------------

commit::Cluster::Options CommitStack::options(std::uint64_t seed, const StackWorkload& w,
                                              recon::PlacementPolicy* policy) {
  return {.seed = seed,
          .num_shards = w.num_shards,
          .shard_size = w.shard_size,
          .spares_per_shard = w.spares_per_shard,
          .isolation = w.isolation,
          .retry_timeout = w.retry_timeout,
          .exponential_delays = w.exponential_delays,
          .enable_tracer = w.capture_trace,
          .enable_controller = w.autonomous_controller,
          .controller_tuning = w.controller,
          .placement_policy = policy,
          .num_zones = w.num_zones,
          .check_certifier_index = w.check_certifier_index};
}

void CommitStack::install_fault_injector(Cluster& c, sim::FaultInjector* fi) {
  c.net().set_fault_injector(fi);
}

void CommitStack::reconfigure(Cluster& c, ShardId s, ProcessId by, Epoch epoch) {
  c.reconfigure(s, by);
  c.await_active_epoch(s, epoch + 1, 200'000);
}

rdma::Cluster::Options RdmaStack::options(std::uint64_t seed, const StackWorkload& w,
                                          recon::PlacementPolicy* policy) {
  return {.seed = seed,
          .num_shards = w.num_shards,
          .shard_size = w.shard_size,
          .spares_per_shard = w.spares_per_shard,
          .isolation = w.isolation,
          .retry_timeout = w.retry_timeout,
          .enable_tracer = w.capture_trace,
          .enable_controller = w.autonomous_controller,
          .controller_tuning = w.controller,
          .placement_policy = policy,
          .num_zones = w.num_zones,
          .check_certifier_index = w.check_certifier_index};
}

void RdmaStack::install_fault_injector(Cluster& c, sim::FaultInjector* fi) {
  c.net().set_fault_injector(fi);
  c.fabric().set_fault_injector(fi);
}

void RdmaStack::reconfigure(Cluster& c, ShardId, ProcessId by, Epoch) {
  Epoch before = c.current_epoch();
  c.replica_by_pid(by).reconfigure();
  c.await_active_epoch(before + 1, 200'000);
}

template <typename Stack>
ReplicaHarness<Stack>::ReplicaHarness(std::uint64_t seed, const StackWorkload& w)
    : Base(w, Stack::options(seed, w, select_placement(w))) {}

template <typename Stack>
commit::ReplicaCore* ReplicaHarness<Stack>::pick_coordinator(Rng& rng) {
  for (int attempts = 0; attempts < 20; ++attempts) {
    ShardId s = static_cast<ShardId>(rng.below(w_.num_shards));
    const configsvc::ShardConfig& cfg = cluster_.current_config(s);
    if (cfg.members.empty()) continue;
    ProcessId pid = cfg.members[rng.below(cfg.members.size())];
    if (cluster_.sim().crashed(pid)) continue;
    auto& r = cluster_.replica_by_pid(pid);
    if (r.epoch() != cfg.epoch) continue;  // stale view: cannot coordinate
    return &r;
  }
  return nullptr;  // no live coordinator: the transaction stays undecided
}

template <typename Stack>
bool ReplicaHarness<Stack>::submit(Rng& rng, TxnId txn, const tcs::Payload& payload) {
  commit::ReplicaCore* coordinator = pick_coordinator(rng);
  if (coordinator == nullptr) return false;
  client_->certify_colocated(*coordinator, txn, payload);
  return true;
}

template <typename Stack>
bool ReplicaHarness<Stack>::submit_batch(
    Rng& rng, const std::vector<std::pair<TxnId, tcs::Payload>>& batch) {
  commit::ReplicaCore* coordinator = pick_coordinator(rng);
  if (coordinator == nullptr) return false;
  client_->certify_batch_colocated(*coordinator, batch);
  return true;
}

template <typename Stack>
std::vector<ProcessId> ReplicaHarness<Stack>::alive_members(ShardId s) {
  std::vector<ProcessId> alive;
  for (ProcessId m : cluster_.current_config(s).members) {
    if (!cluster_.sim().crashed(m)) alive.push_back(m);
  }
  return alive;
}

template <typename Stack>
std::vector<std::vector<ProcessId>> ReplicaHarness<Stack>::fault_units(ShardId s) const {
  std::vector<std::vector<ProcessId>> units;
  for (ProcessId m : cluster_.current_config(s).members) units.push_back({m});
  return units;
}

template <typename Stack>
bool ReplicaHarness<Stack>::crash_and_reconfigure(Rng& rng, ShardId s) {
  configsvc::ShardConfig cfg = cluster_.current_config(s);
  std::vector<ProcessId> alive = alive_members(s);
  // Keep Assumption 1: only crash when the whole configuration is still up
  // and a survivor remains to drive reconfiguration.
  if (alive.size() < cfg.members.size() || alive.size() <= 1) return false;
  ProcessId victim = alive[rng.below(alive.size())];
  cluster_.crash(victim);
  // Crash-only nemesis: no omniscient repair — the autonomous controller
  // (if enabled) must detect the crash and reconfigure on its own.
  if (!w_.harness_repair) return true;
  ProcessId survivor = kNoProcess;
  for (ProcessId m : alive) {
    if (m == victim) continue;
    survivor = m;
    if (Stack::kFirstSurvivor) break;
  }
  Stack::reconfigure(cluster_, s, survivor, cfg.epoch);
  return true;
}

template <typename Stack>
bool ReplicaHarness<Stack>::reconfigure_healthy(Rng& rng, ShardId s) {
  configsvc::ShardConfig cfg = cluster_.current_config(s);
  std::vector<ProcessId> alive = alive_members(s);
  if (alive.empty()) return false;
  // Any current member may trigger it (Fig. 1 line 33).
  Stack::reconfigure(cluster_, s, alive[rng.below(alive.size())], cfg.epoch);
  return true;
}

template <typename Stack>
void ReplicaHarness<Stack>::drain(Duration d, Rng& rng) {
  (void)rng;
  cluster_.sim().run_until(cluster_.sim().now() + d);
}

template class ReplicaHarness<CommitStack>;
template class ReplicaHarness<RdmaStack>;

// --- baseline -------------------------------------------------------------------

BaselineHarness::BaselineHarness(std::uint64_t seed, const StackWorkload& w)
    : HarnessBase(w, {.seed = seed,
                      .num_shards = w.num_shards,
                      .shard_size = w.shard_size,
                      .isolation = w.isolation,
                      .exponential_delays = w.exponential_delays,
                      .enable_tracer = w.capture_trace,
                      .termination = w.termination,
                      .check_certifier_index = w.check_certifier_index}) {}

bool BaselineHarness::submit(Rng& rng, TxnId txn, const tcs::Payload& payload) {
  (void)rng;  // routing is deterministic: the leader of the first shard
  ProcessId coordinator = cluster_.coordinator_for(payload);
  if (cluster_.sim().crashed(coordinator)) return false;
  client_->certify_remote(coordinator, txn, payload);
  return true;
}

bool BaselineHarness::submit_batch(
    Rng& rng, const std::vector<std::pair<TxnId, tcs::Payload>>& batch) {
  (void)rng;
  std::map<ProcessId, std::vector<std::pair<TxnId, tcs::Payload>>> groups;
  for (const auto& item : batch) {
    groups[cluster_.coordinator_for(item.second)].push_back(item);
  }
  bool any = false;
  for (auto& [coordinator, group] : groups) {
    if (cluster_.sim().crashed(coordinator)) continue;
    client_->certify_batch_remote(coordinator, group);
    any = true;
  }
  return any;
}

std::vector<ProcessId> BaselineHarness::alive_servers(ShardId s) {
  std::vector<ProcessId> alive;
  for (ProcessId m : cluster_.shard_servers(s)) {
    if (!cluster_.sim().crashed(m)) alive.push_back(m);
  }
  return alive;
}

std::vector<std::vector<ProcessId>> BaselineHarness::fault_units(ShardId s) const {
  // A baseline machine is one process: the shard server hosts its Paxos
  // member.
  std::vector<std::vector<ProcessId>> units;
  for (ProcessId m : cluster_.shard_servers(s)) units.push_back({m});
  return units;
}

bool BaselineHarness::crash_and_reconfigure(Rng& rng, ShardId s) {
  std::vector<ProcessId> alive = alive_servers(s);
  std::size_t majority = w_.shard_size / 2 + 1;
  // Keep a Paxos majority alive after the crash.
  if (alive.size() <= majority) return false;
  ProcessId victim = alive[rng.below(alive.size())];
  bool was_leader = victim == cluster_.leader_server(s);
  cluster_.crash_server(victim);
  if (!w_.harness_repair) return true;  // crash-only nemesis: no failover
  if (was_leader) {
    // Fail leadership over to a survivor.  Coordinator state held by the
    // victim is NOT recovered — classical 2PC blocks those transactions;
    // the other termination modes finish them from the replicated state.
    ProcessId survivor = kNoProcess;
    for (ProcessId m : alive) {
      if (m != victim) survivor = m;
    }
    cluster_.elect_leader(s, survivor);
  }
  sim().run_until(sim().now() + 300);
  return true;
}

bool BaselineHarness::reconfigure_healthy(Rng& rng, ShardId s) {
  // The baseline cannot change membership; a leadership handover is its
  // only reconfiguration analogue.
  std::vector<ProcessId> alive = alive_servers(s);
  if (alive.empty()) return false;
  cluster_.elect_leader(s, alive[rng.below(alive.size())]);
  sim().run_until(sim().now() + 200);
  return true;
}

void BaselineHarness::drain(Duration d, Rng& rng) {
  (void)rng;
  sim().run_until(sim().now() + d);
  // Lost Paxos messages stall slots (commands are not retransmitted); a
  // re-election by the sitting leader re-proposes pending slots and fills
  // gaps without disturbing the 2PC routing tables.
  for (int round = 0; round < 2; ++round) {
    for (ShardId s = 0; s < cluster_.num_shards(); ++s) {
      ProcessId leader = cluster_.leader_server(s);
      if (!sim().crashed(leader)) {
        cluster_.server_by_pid(leader).paxos().start_election();
      }
    }
    sim().run();
  }
}

std::string BaselineHarness::verify() {
  std::string problems = cluster_.verify();
  if (w_.isolation == "serializability") {
    // End-to-end conflict-graph oracle over the committed projection, in
    // every termination mode: the decision-agreement check above cannot see
    // a cyclic commit order, and this stack has no online monitor or TCS-LL
    // oracle to catch one.
    checker::ConflictGraphResult cg =
        checker::check_conflict_graph(cluster_.history());
    if (!cg.ok) {
      if (!problems.empty()) problems += "\n";
      problems += "conflict graph: " + cg.error;
    }
  }
  return problems;
}

}  // namespace ratc::store
