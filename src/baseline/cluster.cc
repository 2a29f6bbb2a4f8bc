#include "baseline/cluster.h"

#include <cassert>
#include <stdexcept>

namespace ratc::baseline {

BaselineCluster::BaselineCluster(Options options)
    : SimHost(options.seed, options.exponential_delays
                                ? sim::Network::exponential_delay_options(5.0)
                                : sim::Network::unit_delay_options()),
      options_(options),
      shard_map_(options.num_shards),
      certifier_(tcs::make_certifier(options.isolation)) {
  if (options_.enable_tracer) attach_tracer();

  for (ShardId s = 0; s < options_.num_shards; ++s) {
    ShardServer::Options sopt;
    sopt.shard = s;
    sopt.shard_map = &shard_map_;
    sopt.certifier = certifier_.get();
    sopt.termination = options_.termination;
    sopt.check_certifier_index = options_.check_certifier_index;
    sopt.paxos.group = shard_servers(s);
    sopt.paxos.initial_leader = sopt.paxos.group.front();
    for (ProcessId pid : sopt.paxos.group) {
      servers_.push_back(std::make_unique<ShardServer>(net_.runtime(), pid, sopt));
      sim_.add_process(servers_.back().get());
    }
    leader_.push_back(sopt.paxos.initial_leader);
  }
  // Install the full routing table at every server.
  for (auto& server : servers_) {
    for (ShardId s = 0; s < options_.num_shards; ++s) server->set_shard_leader(s, leader_[s]);
  }
}

ProcessId BaselineCluster::server_pid(ShardId s, std::size_t idx) const {
  return kReplicaBase + s * kShardStride + static_cast<ProcessId>(idx);
}

ShardServer& BaselineCluster::server(ShardId s, std::size_t idx) {
  return server_by_pid(server_pid(s, idx));
}

ShardServer& BaselineCluster::server_by_pid(ProcessId pid) {
  if (pid >= kReplicaBase) {
    std::size_t shard = (pid - kReplicaBase) / kShardStride;
    std::size_t idx = (pid - kReplicaBase) % kShardStride;
    std::size_t i = shard * options_.shard_size + idx;
    if (idx < options_.shard_size && i < servers_.size()) return *servers_[i];
  }
  throw std::out_of_range("no baseline server with pid " + std::to_string(pid));
}

std::vector<ProcessId> BaselineCluster::shard_servers(ShardId s) const {
  std::vector<ProcessId> out;
  for (std::size_t i = 0; i < options_.shard_size; ++i) out.push_back(server_pid(s, i));
  return out;
}

ProcessId BaselineCluster::leader_server(ShardId s) const { return leader_.at(s); }

ProcessId BaselineCluster::coordinator_for(const tcs::Payload& payload) const {
  std::vector<ShardId> parts = shard_map_.shards_of(payload);
  assert(!parts.empty());
  return leader_.at(parts.front());
}

void BaselineCluster::crash_server(ProcessId server) { sim_.crash(server); }

void BaselineCluster::elect_leader(ShardId s, ProcessId new_leader) {
  server_by_pid(new_leader).paxos().start_election();
  leader_.at(s) = new_leader;
  // Repoint the routing tables (in a real deployment clients discover this
  // via the Paxos leader hint; the harness shortcuts that).
  for (auto& sv : servers_) sv->set_shard_leader(s, new_leader);
}

void BaselineCluster::fail_over(ShardId s, std::size_t new_leader_idx) {
  // Crash the current leader, then elect the chosen server.
  crash_server(leader_.at(s));
  elect_leader(s, server_pid(s, new_leader_idx));
}

TerminationStats BaselineCluster::termination_stats() const {
  TerminationStats total;
  for (const auto& sv : servers_) total += sv->termination_stats();
  return total;
}

std::optional<tcs::Csn> BaselineCluster::snapshot_read(
    const std::vector<ObjectId>& objects, Duration staleness_bound,
    std::uint64_t member_hint) {
  (void)member_hint;  // leader-gated: there is exactly one eligible server
  return serve_snapshot_read(shard_map_, objects, staleness_bound,
                             [this](ShardId s) -> const ShardServer* {
                               ProcessId pid = leader_.at(s);
                               if (sim_.crashed(pid)) return nullptr;
                               const ShardServer& sv = server_by_pid(pid);
                               // Electing or lagging leaders do not serve.
                               return sv.can_serve_reads() ? &sv : nullptr;
                             });
}

std::string BaselineCluster::verify() const {
  std::string problems;
  auto conflicting = history_.conflicting_decisions();
  if (!conflicting.empty()) {
    problems += "conflicting client decisions for " +
                std::to_string(conflicting.size()) + " transaction(s)\n";
  }
  // Replicated-state-machine + 2PC atomicity: every server that applied a
  // decision for t (same shard or not) applied the same one, and it matches
  // what clients observed — the obligation kPaxosCommit's early client
  // reply leans on.
  std::map<TxnId, tcs::Decision> global;
  for (const auto& sv : servers_) {
    for (const auto& [t, d] : sv->decided_txns()) {
      auto [it, inserted] = global.emplace(t, d);
      if (!inserted && it->second != d) {
        problems += "txn" + std::to_string(t) + " decided both " +
                    std::string(tcs::to_string(it->second)) + " and " +
                    std::string(tcs::to_string(d)) + " across servers\n";
      }
    }
  }
  for (const auto& [t, d] : global) {
    auto observed = history_.decision_of(t);
    if (observed.has_value() && *observed != d) {
      problems += "txn" + std::to_string(t) + " externalized as " +
                  std::string(tcs::to_string(*observed)) + " but applied as " +
                  std::string(tcs::to_string(d)) + "\n";
    }
  }
  return problems;
}

}  // namespace ratc::baseline
