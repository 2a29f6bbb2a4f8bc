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
// the one-sided RAccept/RDecision writes with their write-token ack
// matching, and Fig. 8's global reconfiguration (ReconfigMode::kGlobalSafe):
// the global configuration as the view, and the global-service hooks and
// fabric-aware install that replace the core's Fig. 1 ones.
//
// ReconfigMode::kPerShardUnsafe keeps the core's default instead: Fig. 1's
// per-shard reconfiguration (no connection management) over the RDMA data
// path.  This is the protocol the paper proves INCORRECT via the Figure 4a
// counter-example; tests use it to reproduce the violation and to show the
// global protocol prevents it (experiment E7).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include "commit/replica_core.h"
#include "rdma/fabric.h"
#include "rdma/messages.h"

namespace ratc::commit {
class Monitor;
}

namespace ratc::rdma {

enum class ReconfigMode {
  kGlobalSafe,      ///< Fig. 8: the paper's corrected protocol
  kPerShardUnsafe,  ///< Fig. 4a strawman: per-shard reconfiguration + RDMA
};

using Status = commit::Status;

class Replica : public commit::ReplicaCore {
 public:
  struct Options : commit::ReplicaCore::Options {
    ReconfigMode mode = ReconfigMode::kGlobalSafe;
    /// ABLATION (tests only): skip the flush() at NEW_CONFIG (Fig. 8 line
    /// 142).  Unsafe: acknowledged-but-unpolled writes are dropped from the
    /// state transfer even though coordinators may have externalized
    /// decisions based on those acknowledgements.
    bool ablate_flush = false;
    commit::Monitor* monitor = nullptr;
  };

  Replica(rt::Runtime& rt, Fabric& fabric, ProcessId id, Options options);

  /// Installs the pre-activated initial configuration.  The harness opens
  /// the initial RDMA connections.
  void bootstrap(Status status, const configsvc::GlobalConfig& config);
  void bootstrap_spare(const configsvc::GlobalConfig& config);

  /// Global reconfiguration (safe mode, Fig. 8 line 103).
  void reconfigure();
  /// Per-shard reconfiguration (unsafe mode only): the core's Fig. 1
  /// reconfigure(s).
  void reconfigure_shard(ShardId s);

  /// The view: the single system epoch and the global configuration in safe
  /// mode, the core's per-shard views in the unsafe strawman.
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

  // Fig. 8 reconfiguration (safe mode).  The probe/descend/placement/CAS
  // lifecycle lives in recon::Engine, the PROBE handler in the core; the
  // hooks below point the engine at the global configuration service, and
  // activate() starts the fabric-aware install phase (CONFIG_PREPARE ..
  // CONNECT, Fig. 8 lines 131-162).  In unsafe mode each defers to the
  // core's Fig. 1 version.
  void on_probed() override;
  void handle_config_prepare(ProcessId from, const ConfigPrepare& m);
  void handle_config_prepare_ack(ProcessId from, const ConfigPrepareAck& m);
  void handle_new_config(const RNewConfig& m);
  void handle_new_state(const RNewState& m);
  void handle_connect(ProcessId from, const Connect& m);
  void handle_connect_ack(ProcessId from, const ConnectAck& m);
  void open_connections_to(const std::vector<ProcessId>& peers);
  void arm_connect_retry();

  // recon::StackHooks.
  void fetch_latest(const std::vector<ShardId>& shards,
                    std::function<void(bool, recon::Snapshot)> cb) override;
  void fetch_members_at(
      ShardId shard, Epoch epoch,
      std::function<void(bool, std::vector<ProcessId>)> cb) override;
  void submit(const recon::Proposal& proposal,
              std::function<void(bool)> done) override;
  void activate(const recon::Proposal& proposal) override;

  /// How often a replica re-sends CONNECT to members it has no connection
  /// to yet.
  static constexpr Duration kConnectRetry = 5;

  const ReconfigMode mode_;
  const bool ablate_flush_;
  Fabric& fabric_;

  Epoch epoch_ = kNoEpoch;  ///< the single system epoch (safe mode)
  configsvc::GlobalConfig config_;
  configsvc::GlobalConfig pending_config_;  ///< staged by CONFIG_PREPARE
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
