// Replica of the RDMA-based atomic commit protocol (paper Sec. 5, Figs. 7-8).
//
// Differences from the message-passing protocol of Fig. 1:
//  * ACCEPT and DECISION are one-sided RDMA writes; followers acknowledge
//    through their NIC without executing any check — the coordinator acts
//    on ack-rdma completions (Fig. 7 lines 93-100);
//  * because the follower-side epoch guard (Fig. 1 line 22) is therefore
//    gone, reconfiguration must be *global*: a single system epoch, probing
//    of every shard, CONFIG_PREPARE dissemination to the whole membership
//    before activation, and connection management (close on PROBE, flush on
//    NEW_CONFIG, re-open via CONNECT) — Fig. 8;
//  * processes keep one `epoch` variable instead of a per-shard vector.
//
// Everything else of Fig. 7 is Fig. 1's certification path, which lives in
// commit::ReplicaCore, shared with commit::Replica.  This substrate keeps
// the view (global configuration or per-shard views), the one-sided
// RAccept/RDecision writes with their write-token ack matching, and the
// reconfiguration install.
//
// The replica also implements ReconfigMode::kPerShardUnsafe: the Fig. 1
// reconfiguration (per-shard, no connection management) combined with the
// RDMA data path.  This is the protocol the paper proves INCORRECT via the
// Figure 4a counter-example; tests use it to reproduce the violation and
// to show the global protocol prevents it (experiment E7).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include "commit/replica_core.h"
#include "configsvc/client.h"
#include "rdma/fabric.h"
#include "rdma/messages.h"

namespace ratc::rdma {

class RdmaMonitor;

enum class ReconfigMode {
  kGlobalSafe,      ///< Fig. 8: the paper's corrected protocol
  kPerShardUnsafe,  ///< Fig. 4a strawman: per-shard reconfiguration + RDMA
};

using Status = commit::Status;

class Replica : public commit::ReplicaCore {
 public:
  struct Options : commit::ReplicaCore::Options {
    ReconfigMode mode = ReconfigMode::kGlobalSafe;
    Duration connect_retry = 5;
    /// ABLATION (tests only): skip the flush() at NEW_CONFIG (Fig. 8 line
    /// 142).  Unsafe: acknowledged-but-unpolled writes are dropped from the
    /// state transfer even though coordinators may have externalized
    /// decisions based on those acknowledgements.
    bool ablate_flush = false;
    RdmaMonitor* monitor = nullptr;
  };

  Replica(rt::Runtime& rt, Fabric& fabric, ProcessId id, Options options);

  /// Installs the pre-activated initial configuration.  The harness opens
  /// the initial RDMA connections.
  void bootstrap(Status status, const configsvc::GlobalConfig& config);
  void bootstrap_spare(const configsvc::GlobalConfig& config);

  /// Global reconfiguration (safe mode, Fig. 8 line 103).
  void reconfigure();
  /// Per-shard reconfiguration (unsafe mode only).
  void reconfigure_shard(ShardId s);

  const configsvc::GlobalConfig& global_config() const { return config_; }
  const std::set<ProcessId>& connections() const { return connections_; }

  /// The view: the single system epoch and the global configuration in safe
  /// mode, the per-shard views in the unsafe strawman.
  Epoch epoch_of(ShardId s) const override;
  ProcessId leader_of(ShardId s) const override;
  const std::vector<ProcessId>& members_of(ShardId s) const override;

  // The CSN read surface (commit::ReplicaCore) needs no fabric flush before
  // serving a read: an RAccept still in flight means this replica never
  // acknowledged, so the transaction cannot be decided anywhere (lines
  // 96-97); an RDecision still in flight leaves the slot prepared here,
  // where it gates the watermark.

  void on_message(ProcessId from, const sim::AnyMessage& msg) override;

 private:
  // Certification hooks: ACCEPT and DECISION as one-sided writes.
  void replicate(ProcessId follower,
                 std::span<const commit::PrepareAck* const> acks) override;
  void ship_decision(ShardId s, const ShardProgress& pr, TxnId txn,
                     tcs::Decision decision, Time csn_ts) override;
  void deliver_rdma(ProcessId from, const sim::AnyMessage& msg);
  void handle_rdma_ack(const RdmaAck& ack);

  // Reconfiguration (Fig. 8 for safe mode; Fig. 1 lines 33-69 for unsafe).
  // The probe/descend/placement/CAS lifecycle lives in recon::Engine; the
  // hooks below adapt it to the global (GCS) and per-shard (CS) substrates.
  // What stays here is the probed side (handle_probe) and the safe mode's
  // fabric-aware install phase (CONFIG_PREPARE .. CONNECT, Fig. 8 lines
  // 131-162), which the engine triggers through activate().
  void handle_probe(ProcessId from, const commit::Probe& m);
  void handle_config_prepare(ProcessId from, const ConfigPrepare& m);
  void handle_config_prepare_ack(ProcessId from, const ConfigPrepareAck& m);
  void handle_new_config(const RNewConfig& m);
  void handle_new_state(const RNewState& m);
  void handle_connect(ProcessId from, const Connect& m);
  void handle_connect_ack(ProcessId from, const ConnectAck& m);
  void open_connections_to(const std::vector<ProcessId>& peers);
  void arm_connect_retry();

  // Unsafe-mode reconfiguration (per-shard, Fig. 1 shape).
  void handle_new_config_unsafe(const commit::NewConfig& m);
  void handle_new_state_unsafe(ProcessId from, const commit::NewState& m);
  void handle_config_change(const configsvc::ConfigChange& m);

  // recon::StackHooks.
  void fetch_latest(const std::vector<ShardId>& shards,
                    std::function<void(bool, recon::Snapshot)> cb) override;
  void fetch_members_at(
      ShardId shard, Epoch epoch,
      std::function<void(bool, std::vector<ProcessId>)> cb) override;
  void submit(const recon::Proposal& proposal,
              std::function<void(bool)> done) override;
  void activate(const recon::Proposal& proposal) override;

  const ReconfigMode mode_;
  const Duration connect_retry_;
  const bool ablate_flush_;
  Fabric& fabric_;
  configsvc::GcsClient gcs_;
  configsvc::CsClient cs_;  // unsafe mode

  Epoch epoch_ = kNoEpoch;  ///< the single system epoch (safe mode)
  configsvc::GlobalConfig config_;
  configsvc::GlobalConfig pending_config_;  ///< staged by CONFIG_PREPARE
  /// Unsafe mode: per-shard views, as in Fig. 1.
  std::map<ShardId, configsvc::ShardConfig> views_;
  std::set<ProcessId> connections_;

  // The safe mode's install phase, staged by activate().
  bool installing_ = false;  ///< CONFIG_PREPARE dissemination in flight
  configsvc::GlobalConfig recon_config_;
  std::set<ProcessId> config_prepare_acks_;

  /// RDMA write tokens -> (txn, shard, follower) per batched item, for ack
  /// matching (scalar writes hold one entry; a batched write's single NIC
  /// ack fans out to every item it carried).
  std::map<std::uint64_t, std::vector<std::tuple<TxnId, ShardId, ProcessId>>>
      write_tokens_;
};

}  // namespace ratc::rdma
