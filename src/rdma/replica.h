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
// The replica also implements ReconfigMode::kPerShardUnsafe: the Fig. 1
// reconfiguration (per-shard, no connection management) combined with the
// RDMA data path.  This is the protocol the paper proves INCORRECT via the
// Figure 4a counter-example; tests use it to reproduce the violation and
// to show the global protocol prevents it (experiment E7).
#pragma once

#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "commit/log.h"
#include "commit/messages.h"
#include "commit/witness_index.h"
#include "configsvc/client.h"
#include "configsvc/config.h"
#include "fd/failure_detector.h"
#include "rdma/fabric.h"
#include "rdma/messages.h"
#include "recon/engine.h"
#include "sim/network.h"
#include "sim/process.h"
#include "store/versioned_store.h"
#include "tcs/certifier.h"
#include "tcs/csn.h"
#include "tcs/shard_map.h"

namespace ratc::rdma {

class RdmaMonitor;

enum class ReconfigMode {
  kGlobalSafe,      ///< Fig. 8: the paper's corrected protocol
  kPerShardUnsafe,  ///< Fig. 4a strawman: per-shard reconfiguration + RDMA
};

enum class Status { kLeader, kFollower, kReconfiguring };

class Replica : public sim::Process, private recon::StackHooks {
 public:
  struct Options {
    ShardId shard = 0;
    ReconfigMode mode = ReconfigMode::kGlobalSafe;
    const tcs::ShardMap* shard_map = nullptr;
    const tcs::Certifier* certifier = nullptr;
    /// Global-CS endpoints (safe mode) or per-shard-CS endpoints (unsafe).
    std::vector<ProcessId> cs_endpoints;
    std::size_t target_shard_size = 2;
    std::function<std::vector<ProcessId>(ShardId, std::size_t)> allocate_spares;
    /// Returns spares reserved by a proposal whose CAS lost (they remain
    /// fresh; see commit::Replica::Options::release_spares).
    std::function<void(ShardId, const std::vector<ProcessId>&)> release_spares;
    Duration probe_patience = 5;
    /// Membership policy for the reconfigurer role (both modes); null
    /// selects recon::ReplaceSuspectsPolicy.  Non-owning.
    recon::PlacementPolicy* placement_policy = nullptr;
    /// Cluster knowledge (zones, load, spare depth) for the policy.
    std::function<recon::PlacementContext(ShardId)> placement_context;
    Duration connect_retry = 5;
    Duration retry_timeout = 0;
    /// ABLATION (tests only): skip the flush() at NEW_CONFIG (Fig. 8 line
    /// 142).  Unsafe: acknowledged-but-unpolled writes are dropped from the
    /// state transfer even though coordinators may have externalized
    /// decisions based on those acknowledgements.
    bool ablate_flush = false;
    /// Debug cross-check: recompute every vote and read watermark with the
    /// flat log scan and abort on divergence (see commit::Replica).
    bool check_certifier_index = false;
    /// Versions per object the snapshot store retains for CSN reads.
    std::size_t snapshot_history_depth = 16;
    RdmaMonitor* monitor = nullptr;
  };

  Replica(rt::Runtime& rt, Fabric& fabric, ProcessId id, Options options);
  Replica(sim::Simulator& sim, sim::Network& net, Fabric& fabric, ProcessId id,
          Options options);

  /// Installs the pre-activated initial configuration.  The harness opens
  /// the initial RDMA connections.
  void bootstrap(Status status, const configsvc::GlobalConfig& config);
  void bootstrap_spare(const configsvc::GlobalConfig& config);

  /// As commit::Replica::certify_local: the callback's Time is csn(t).ts
  /// (0 for aborts); `origin` is the co-located client a successor
  /// coordinator routes the decision to after a crash.
  void certify_local(TxnId txn, const tcs::Payload& payload,
                     std::function<void(tcs::Decision, Time)> cb,
                     ProcessId origin = kNoProcess);

  /// Batched certify with this replica as coordinator of every item (see
  /// commit::Replica::certify_batch_local): one PREPARE_BATCH per shard
  /// leader, one batched one-sided ACCEPT write per follower.
  void certify_batch_local(
      const std::vector<std::pair<TxnId, tcs::Payload>>& batch,
      std::function<void(TxnId, tcs::Decision, Time)> cb,
      ProcessId origin = kNoProcess);

  /// Global reconfiguration (safe mode, Fig. 8 line 103).
  void reconfigure();
  /// Per-shard reconfiguration (unsafe mode only).
  void reconfigure_shard(ShardId s);

  void retry(Slot k);

  ShardId shard() const { return options_.shard; }
  Status status() const { return status_; }
  bool initialized() const { return initialized_; }
  Epoch epoch() const;
  const commit::ReplicaLog& log() const { return log_; }
  const configsvc::GlobalConfig& global_config() const { return config_; }
  ProcessId leader_of(ShardId s) const;
  std::vector<ProcessId> members_of(ShardId s) const;
  const std::set<ProcessId>& connections() const { return connections_; }
  /// The shared reconfigurer core (stats + spare-ledger introspection).
  const recon::Engine& recon_engine() const { return engine_; }

  // --- CSN read surface (see commit::Replica) --------------------------------
  //
  // No fabric flush is needed before serving a read: an RAccept still in
  // flight means this replica never acknowledged, so the transaction cannot
  // be decided anywhere (lines 96-97); an RDecision still in flight leaves
  // the slot prepared here, where it gates the watermark.

  /// The largest snapshot this replica can currently serve.
  tcs::Csn read_watermark() const;

  /// The multi-version committed state CSN reads are served from.
  const store::SnapshotStore& snapshot_store() const { return store_; }

  void on_message(ProcessId from, const sim::AnyMessage& msg) override;

 private:
  struct ShardProgress {
    bool have_prepare_ack = false;
    Epoch epoch = kNoEpoch;
    Slot slot = kNoSlot;
    tcs::Decision vote = tcs::Decision::kAbort;
    Time prepare_ts = 0;  ///< leader's CSN stamp; csn(t).ts = max over shards
    std::set<ProcessId> pending_writes;  ///< followers whose ack is awaited
    std::set<ProcessId> acked;
  };
  struct CoordState {
    commit::TxnMeta meta;
    std::map<ShardId, ShardProgress> progress;
    bool decided = false;
    /// Set for co-located clients; second arg is csn(t).ts (0 for aborts).
    std::function<void(tcs::Decision, Time)> local_cb;
    /// Per-shard projections for coordinator re-drive (see
    /// redrive_coordinations); empty for ⊥ retries.
    std::map<ShardId, tcs::Payload> shard_payloads;
    Time last_driven = 0;
  };
  // Certification path (Fig. 7).
  void start_certification(commit::TxnMeta meta, const tcs::Payload* full_payload,
                           std::function<void(tcs::Decision, Time)> local_cb);
  void handle_prepare(ProcessId from, const commit::Prepare& m);
  void prepare_and_ack(ProcessId coordinator, const commit::Prepare& m);
  void handle_prepare_batch(ProcessId from, const commit::PrepareBatch& m);
  /// Fig. 7 lines 78-90 without the send; shared by the scalar and batched
  /// paths.
  commit::PrepareAck prepare_txn(const commit::Prepare& m);
  tcs::Decision compute_vote(Slot slot, const tcs::Payload& l);
  /// Aborts on divergence between the witness index and the flat scan
  /// (no-op unless check_certifier_index).
  void check_index_against_flat(Slot slot, tcs::Decision indexed_vote,
                                const tcs::Payload& l,
                                const commit::WitnessIndex::Witnesses& w) const;
  /// Sets-only variant for forced-abort slots, where the vote is a protocol
  /// constant rather than an index computation.
  void check_index_sets_against_flat(
      Slot slot, const commit::WitnessIndex::Witnesses& w) const;
  void handle_prepare_ack(const commit::PrepareAck& m);
  void handle_prepare_ack_batch(const commit::PrepareAckBatch& m);
  /// Line 92's bookkeeping without the one-sided writes: records the ack
  /// and fills *accept; false if the guard rejects it.
  bool note_prepare_ack(const commit::PrepareAck& m, RAccept* accept);
  void deliver_rdma(ProcessId from, const sim::AnyMessage& msg);
  void apply_raccept(const RAccept& a);    // line 95
  void apply_rdecision(const RDecision& d);  // line 102
  void handle_rdma_ack(const RdmaAck& ack);
  void check_coordination(TxnId txn);

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
  void handle_new_state(ProcessId from, const RNewState& m);
  void handle_connect(ProcessId from, const Connect& m);
  void handle_connect_ack(ProcessId from, const ConnectAck& m);
  void open_connections_to(const std::vector<ProcessId>& peers);
  void arm_connect_retry();

  // Unsafe-mode reconfiguration (per-shard, Fig. 1 shape).
  void handle_new_config_unsafe(const commit::NewConfig& m);
  void handle_new_state_unsafe(ProcessId from, const commit::NewState& m);
  void handle_config_change(const configsvc::ConfigChange& m);

  /// Refiles every decided-commit log entry into the snapshot store under
  /// its csn (log replacement / leader takeover).
  void rebuild_snapshot_store();

  void arm_retry_timer();
  /// One retry-timer firing, collect-then-act (see commit::Replica).
  void run_retry_tick();
  /// Re-sends PREPAREs of undecided coordinated transactions to the current
  /// leaders; runs on the retry timer.  `driven_this_tick` asserts no
  /// transaction is re-driven twice within one tick.
  void redrive_coordinations(const std::set<TxnId>& driven_this_tick);
  Epoch view_epoch(ShardId s) const;

  // recon::StackHooks.
  void fetch_latest(const std::vector<ShardId>& shards,
                    std::function<void(bool, recon::Snapshot)> cb) override;
  void fetch_members_at(
      ShardId shard, Epoch epoch,
      std::function<void(bool, std::vector<ProcessId>)> cb) override;
  void send_probe(ProcessId target, Epoch new_epoch) override;
  std::vector<ProcessId> reserve_spares(ShardId shard, std::size_t n) override;
  void release_spares(ShardId shard,
                      const std::vector<ProcessId>& spares) override;
  void submit(const recon::Proposal& proposal,
              std::function<void(bool)> done) override;
  void activate(const recon::Proposal& proposal) override;
  recon::PlacementContext placement_context(ShardId shard) override;

  Options options_;
  Fabric& fabric_;
  configsvc::GcsClient gcs_;
  configsvc::CsClient cs_;  // unsafe mode
  fd::Responder fd_responder_;
  RdmaMonitor* monitor_;

  Status status_ = Status::kReconfiguring;
  bool initialized_ = false;
  Epoch new_epoch_ = kNoEpoch;
  Epoch epoch_ = kNoEpoch;  ///< the single system epoch (safe mode)
  configsvc::GlobalConfig config_;
  configsvc::GlobalConfig pending_config_;  ///< staged by CONFIG_PREPARE
  /// Unsafe mode: per-shard views, as in Fig. 1.
  std::map<ShardId, configsvc::ShardConfig> views_;
  commit::ReplicaLog log_;
  Slot next_ = 0;
  /// Object-indexed view of log_ (see commit::WitnessIndex); rebuilt on log
  /// replacement and leadership takeover.
  commit::WitnessIndex index_;
  std::set<ProcessId> connections_;

  // Reconfigurer: the probe/descend/CAS core is engine_; what remains here
  // is the safe mode's install phase (staged by activate()).
  recon::Engine engine_;
  bool installing_ = false;  ///< CONFIG_PREPARE dissemination in flight
  configsvc::GlobalConfig recon_config_;
  std::set<ProcessId> config_prepare_acks_;

  // Coordinator state; decided entries stay as slim tombstones and the
  // index bounds the re-drive scan (see commit::Replica).
  std::map<TxnId, CoordState> coord_;
  std::set<TxnId> undecided_coords_;
  /// RDMA write tokens -> (txn, shard, follower) per batched item, for ack
  /// matching (scalar writes hold one entry; a batched write's single NIC
  /// ack fans out to every item it carried).
  std::map<std::uint64_t, std::vector<std::tuple<TxnId, ShardId, ProcessId>>>
      write_tokens_;

  // Every prepared slot, for the retry timer and read_watermark() (see
  // commit::Replica).
  std::map<Slot, Time> prepared_at_;

  /// Committed multi-version state, filed under Csn{csn_ts, txn}; rebuilt
  /// from the log on RNEW_STATE / NEW_STATE / leader takeover.
  store::SnapshotStore store_;
};

}  // namespace ratc::rdma
