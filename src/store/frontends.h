// TcsFrontend adapters for the three TCS implementations, so the same
// WorkloadRunner (and hence the same benches/examples) can drive them all.
// Every frontend drives one history-recording commit::Client: co-located
// with its coordinators on the replica stacks, remote on the baseline.
#pragma once

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "baseline/cluster.h"
#include "commit/cluster.h"
#include "rdma/cluster.h"
#include "store/runner.h"

namespace ratc::store {

/// What every frontend shares: the cluster and its one client, whose
/// decisions feed the runner.
template <typename Cluster>
class ClientFrontend : public TcsFrontend {
 public:
  explicit ClientFrontend(Cluster& cluster)
      : cluster_(cluster), client_(cluster.add_client()) {
    client_.on_decision = [this](TxnId t, tcs::Decision d) {
      if (on_decision) on_decision(t, d);
    };
  }

  TxnId next_txn_id() override { return cluster_.next_txn_id(); }

 protected:
  Cluster& cluster_;
  commit::Client& client_;
};

/// The paper protocol over messages (Fig. 1) or over the RDMA fabric
/// (Figs. 7-8).  Coordinators round-robin over the current members of all
/// shards (co-located clients: 4-delay path).
template <typename Cluster>
class ReplicaFrontend : public ClientFrontend<Cluster> {
 public:
  using ClientFrontend<Cluster>::ClientFrontend;

  void submit(TxnId txn, const tcs::Payload& payload) override {
    auto* coord = pick_coordinator();
    if (coord == nullptr) return;  // no live coordinator: stays undecided
    client_.certify_colocated(*coord, txn, payload);
  }

  /// One coordinator drives the whole batch: one PREPARE_BATCH per shard
  /// leader instead of one PREPARE per transaction each.
  void submit_batch(
      const std::vector<std::pair<TxnId, tcs::Payload>>& batch) override {
    auto* coord = pick_coordinator();
    if (coord == nullptr) return;
    client_.certify_batch_colocated(*coord, batch);
  }

  std::optional<tcs::Csn> submit_read_only(
      const std::vector<ObjectId>& objects, Duration staleness_bound = 0) override {
    // Rotate the serving member so follower reads get exercised too.
    return cluster_.snapshot_read(objects, staleness_bound, next_read_member_++);
  }

 private:
  commit::ReplicaCore* pick_coordinator() {
    const std::uint32_t shards = cluster_.shard_map().num_shards();
    for (std::uint32_t attempts = 0; attempts < 4 * shards; ++attempts) {
      ShardId s = next_shard_++ % shards;
      const configsvc::ShardConfig& cfg = cluster_.current_config(s);
      if (cfg.members.empty()) continue;
      ProcessId pid = cfg.members[next_member_++ % cfg.members.size()];
      if (cluster_.sim().crashed(pid)) continue;
      commit::ReplicaCore& r = cluster_.replica_by_pid(pid);
      if (r.epoch() != cfg.epoch) continue;  // stale view: cannot coordinate
      return &r;
    }
    return nullptr;
  }

  using ClientFrontend<Cluster>::cluster_;
  using ClientFrontend<Cluster>::client_;
  std::uint32_t next_shard_ = 0;
  std::size_t next_member_ = 0;
  std::uint64_t next_read_member_ = 0;
};

using CommitFrontend = ReplicaFrontend<commit::Cluster>;
using RdmaFrontend = ReplicaFrontend<rdma::Cluster>;

/// Vanilla 2PC-over-Paxos baseline, in whichever termination mode the
/// cluster was built with (Paxos Commit included).
class BaselineFrontend : public ClientFrontend<baseline::BaselineCluster> {
 public:
  using ClientFrontend::ClientFrontend;

  void submit(TxnId txn, const tcs::Payload& payload) override {
    client_.certify_remote(cluster_.coordinator_for(payload), txn, payload);
  }

  /// The baseline routes each transaction to the leader of its first
  /// participant shard, so a batch is re-grouped by coordinator; each group
  /// becomes one CERTIFY_BATCH and (per participant shard) one Paxos
  /// append.
  void submit_batch(
      const std::vector<std::pair<TxnId, tcs::Payload>>& batch) override {
    std::map<ProcessId, std::vector<std::pair<TxnId, tcs::Payload>>> groups;
    for (const auto& item : batch) {
      groups[cluster_.coordinator_for(item.second)].push_back(item);
    }
    for (auto& [coordinator, group] : groups) {
      client_.certify_batch_remote(coordinator, group);
    }
  }

  std::optional<tcs::Csn> submit_read_only(
      const std::vector<ObjectId>& objects, Duration staleness_bound = 0) override {
    // Leader-gated (no member rotation): see BaselineCluster::snapshot_read.
    return cluster_.snapshot_read(objects, staleness_bound);
  }
};

}  // namespace ratc::store
