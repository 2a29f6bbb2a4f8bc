// Harness for the RDMA-based protocol: shards of f+1 replicas over a
// simulated RDMA fabric, the global configuration service (safe mode) or
// per-shard configuration service (unsafe strawman mode), monitor, clients.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "configsvc/simple_service.h"
#include "ctrl/recon_controller.h"
#include "rdma/fabric.h"
#include "rdma/monitor.h"
#include "rdma/replica.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "tcs/certifier.h"
#include "tcs/history.h"
#include "tcs/shard_map.h"

namespace ratc::rdma {

class Client : public sim::Process {
 public:
  Client(rt::Runtime& rt, ProcessId id, tcs::History* history)
      : Process(rt, id, "rclient" + std::to_string(id)), history_(history) {}
  Client(sim::Simulator& sim, sim::Network& net, ProcessId id, tcs::History* history)
      : Client(net.runtime(), id, history) { (void)sim; }

  void certify_remote(ProcessId coordinator, TxnId txn, const tcs::Payload& payload) {
    history_->record_certify(rt().now(), txn, payload);
    sent_[txn] = rt().now();
    rt().send_msg(id(), coordinator, commit::CertifyRequest{txn, payload});
  }

  void certify_colocated(Replica& coordinator, TxnId txn, const tcs::Payload& payload) {
    history_->record_certify(rt().now(), txn, payload);
    sent_[txn] = rt().now();
    coordinator.certify_local(
        txn, payload,
        [this, txn](tcs::Decision d, Time csn_ts) { record_decision(txn, d, csn_ts); },
        id());
  }

  /// Batched co-located submission (see commit::Client).
  void certify_batch_colocated(
      Replica& coordinator,
      const std::vector<std::pair<TxnId, tcs::Payload>>& batch) {
    for (const auto& [txn, payload] : batch) {
      history_->record_certify(rt().now(), txn, payload);
      sent_[txn] = rt().now();
    }
    coordinator.certify_batch_local(
        batch,
        [this](TxnId txn, tcs::Decision d, Time csn_ts) {
          record_decision(txn, d, csn_ts);
        },
        id());
  }

  void on_message(ProcessId from, const sim::AnyMessage& msg) override {
    (void)from;
    if (const auto* d = msg.as<commit::ClientDecision>()) {
      record_decision(d->txn, d->decision, d->csn_ts);
    }
  }

  bool decided(TxnId t) const { return decisions_.count(t) > 0; }
  std::optional<tcs::Decision> decision(TxnId t) const {
    auto it = decisions_.find(t);
    if (it == decisions_.end()) return std::nullopt;
    return it->second;
  }
  std::size_t decided_count() const { return decisions_.size(); }
  std::optional<Duration> latency(TxnId t) const {
    auto d = decided_at_.find(t);
    auto s = sent_.find(t);
    if (d == decided_at_.end() || s == sent_.end()) return std::nullopt;
    return d->second - s->second;
  }
  /// All decisions this client observed, in arrival order (duplicates kept:
  /// the Fig. 4a test asserts on contradictory ones).
  const std::vector<std::pair<TxnId, tcs::Decision>>& observations() const {
    return observations_;
  }

  /// Invoked once per transaction on its first decision.
  std::function<void(TxnId, tcs::Decision)> on_decision;

 private:
  void record_decision(TxnId txn, tcs::Decision d, Time csn_ts = 0) {
    history_->record_decide(rt().now(), txn, d, tcs::Csn{csn_ts, txn});
    observations_.emplace_back(txn, d);
    if (decisions_.count(txn) == 0) {
      decisions_[txn] = d;
      decided_at_[txn] = rt().now();
      if (on_decision) on_decision(txn, d);
    }
  }

  tcs::History* history_;
  std::map<TxnId, tcs::Decision> decisions_;
  std::map<TxnId, Time> sent_;
  std::map<TxnId, Time> decided_at_;
  std::vector<std::pair<TxnId, tcs::Decision>> observations_;
};

class Cluster {
 public:
  struct Options {
    std::uint64_t seed = 1;
    std::uint32_t num_shards = 2;
    std::size_t shard_size = 2;
    std::size_t spares_per_shard = 2;
    std::string isolation = "serializability";
    ReconfigMode mode = ReconfigMode::kGlobalSafe;
    Duration retry_timeout = 0;
    Duration probe_patience = 5;
    /// Optional per-link delay override (network, and fabric unless
    /// fabric_delay is set); return 0 to use the default of 1 tick.  Used
    /// to orchestrate the Fig. 4a race.
    std::function<Duration(ProcessId from, ProcessId to)> link_delay;
    /// Separate delay for one-sided RDMA operations (writes and NIC acks).
    /// Lets benches model two-sided messaging paying a CPU cost that
    /// one-sided writes avoid (experiment E9).
    std::function<Duration(ProcessId from, ProcessId to)> fabric_delay;
    /// Delay between a write landing and the receiver's CPU polling it.
    Duration poll_delay = 1;
    /// Test-only ablation of the NEW_CONFIG flush (Fig. 8 line 142).
    bool ablate_flush = false;
    bool enable_tracer = false;
    /// Spawn one autonomous reconfiguration controller per shard
    /// (src/ctrl/); safe global mode only.  The controllers delegate
    /// execution to replicas via CTRL_NUDGE (see ctrl/messages.h).
    bool enable_controller = false;
    ctrl::ControllerTuning controller_tuning;
    /// Membership policy for every reconfigurer (the replicas running the
    /// global protocol, and the unsafe strawman's per-shard one).  Null
    /// selects recon::ReplaceSuspectsPolicy.  Non-owning.
    recon::PlacementPolicy* placement_policy = nullptr;
    /// Synthetic zone labels as in commit::Cluster::Options::num_zones.
    std::size_t num_zones = 0;
    /// Debug cross-check of the witness index against the flat log scan
    /// (see commit::ReplicaCore::Options); aborts on divergence.
    bool check_certifier_index = false;
  };

  explicit Cluster(Options options);

  Replica& replica(ShardId s, std::size_t idx);
  Replica& replica_by_pid(ProcessId pid);
  std::vector<ProcessId> spares(ShardId s) const;
  configsvc::ShardConfig current_config(ShardId s) const;
  Epoch current_epoch() const;  ///< safe mode: the stored global epoch
  ProcessId leader_of(ShardId s) const { return current_config(s).leader; }

  Client& add_client();
  TxnId next_txn_id() { return next_txn_++; }

  void crash(ProcessId pid) { sim_.crash(pid); }
  /// Runs until the configuration with epoch >= `at_least` is active
  /// (safe mode: all members of all shards report it).
  bool await_active_epoch(Epoch at_least, std::size_t max_events = 2'000'000);
  bool await_active_shard_epoch(ShardId s, Epoch at_least,
                                std::size_t max_events = 2'000'000);

  // --- autonomous reconfiguration (src/ctrl/) ---------------------------------

  bool has_controller() const { return !controllers_.empty(); }
  ctrl::ReconController& controller(ShardId s) { return *controllers_.at(s); }
  /// Total reconfiguration attempts started by the controllers.
  std::size_t controller_attempts() const;

  // --- shared reconfigurer core (src/recon/) -----------------------------------

  /// Aggregate recon::Engine counters (replicas + controllers).
  recon::EngineStats engine_stats() const;
  /// Per-engine spare-ledger invariant; empty iff balanced everywhere.
  std::string spare_ledger_verdict() const;
  /// Cluster knowledge for placement policies (zones, load, spare depth).
  recon::PlacementContext placement_context(ShardId s) const;

  sim::Simulator& sim() { return sim_; }
  sim::Network& net() { return *net_; }
  Fabric& fabric() { return *fabric_; }
  RdmaMonitor& monitor() { return *monitor_; }
  sim::Tracer& tracer() { return *tracer_; }
  tcs::History& history() { return history_; }
  const tcs::ShardMap& shard_map() const { return shard_map_; }
  const tcs::Certifier& certifier() const { return *certifier_; }

  /// Read-only snapshot transaction with ZERO certification messages and no
  /// fabric flush (see rdma::Replica's CSN read surface), served by the same
  /// commit::serve_snapshot_read as the message-passing stack.
  std::optional<tcs::Csn> snapshot_read(const std::vector<ObjectId>& objects,
                                        Duration staleness_bound = 0,
                                        std::uint64_t member_hint = 0);

  /// End-of-run verdict: monitor violations + conflicting client decisions.
  std::string verify() const;

 private:
  ProcessId replica_pid(ShardId s, std::size_t idx) const;
  /// Fresh-spare pool management (global freshness; mirrors
  /// commit::Cluster::allocate_spares/release_spares).
  std::vector<ProcessId> allocate_spares(ShardId shard, std::size_t n);
  void release_spares(ShardId shard, const std::vector<ProcessId>& spares);

  Options options_;
  sim::Simulator sim_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<Fabric> fabric_;
  tcs::ShardMap shard_map_;
  std::unique_ptr<tcs::Certifier> certifier_;
  std::unique_ptr<RdmaMonitor> monitor_;
  std::unique_ptr<sim::Tracer> tracer_;
  std::unique_ptr<configsvc::SimpleGlobalConfigService> gcs_;
  std::unique_ptr<configsvc::SimpleConfigService> cs_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::unique_ptr<ctrl::ReconController>> controllers_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::map<ShardId, std::vector<ProcessId>> free_spares_;
  std::map<ProcessId, std::string> zones_;
  tcs::History history_;
  TxnId next_txn_ = 1;
};

}  // namespace ratc::rdma
