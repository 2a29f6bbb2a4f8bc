// Replica process of the atomic commit protocol (paper Fig. 1).
//
// Every replica plays up to four roles simultaneously:
//  * shard leader: orders and certifies transactions (PREPARE handling);
//  * follower: persists votes shipped by transaction coordinators (ACCEPT);
//  * transaction coordinator: drives 2PC for transactions submitted to it
//    (any replica can coordinate; this spreads the replication fan-out
//    away from leaders, Fig. 1 lines 18-29);
//  * reconfigurer: replaces failed replicas via the configuration service
//    (Vertical-Paxos style probing, Fig. 1 lines 33-69).
//
// Code comments cite figure line numbers.  Deviations from the pseudocode
// are listed in DESIGN.md Sec. 2 (participant lists carried in messages,
// timer realization of the non-deterministic probing rule, etc.).
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
#include "recon/engine.h"
#include "sim/network.h"
#include "sim/process.h"
#include "store/versioned_store.h"
#include "tcs/certifier.h"
#include "tcs/csn.h"
#include "tcs/shard_map.h"

namespace ratc::commit {

class Monitor;

enum class Status { kLeader, kFollower, kReconfiguring };

inline const char* to_string(Status s) {
  switch (s) {
    case Status::kLeader: return "leader";
    case Status::kFollower: return "follower";
    case Status::kReconfiguring: return "reconfiguring";
  }
  return "?";
}

class Replica : public sim::Process, private recon::StackHooks {
 public:
  struct Options {
    ShardId shard = 0;
    const tcs::ShardMap* shard_map = nullptr;
    const tcs::Certifier* certifier = nullptr;
    std::vector<ProcessId> cs_endpoints;
    /// Desired configuration size (f+1); compute_membership tops up to this.
    std::size_t target_shard_size = 2;
    /// Allocator for *fresh* processes (paper line 48: new members may only
    /// be probing responders or fresh processes).  Freshness must be global:
    /// a process that ever belonged to a configuration may not be handed out
    /// again (otherwise Invariant 5 breaks), so allocation permanently
    /// consumes from a shared pool — the cluster harness models the resource
    /// manager that real deployments use for this.
    std::function<std::vector<ProcessId>(ShardId, std::size_t)> allocate_spares;
    /// Returns spares reserved by a proposal whose CAS lost the race: they
    /// never entered a stored configuration, so they are still fresh.
    /// Without this, every lost reconfiguration race (routine once the
    /// autonomous controllers of src/ctrl/ race replica reconfigurers)
    /// permanently shrinks the pool.
    std::function<void(ShardId, const std::vector<ProcessId>&)> release_spares;
    /// How long the reconfigurer waits for a PROBE_ACK(true) after the first
    /// PROBE_ACK(false) before descending an epoch (the paper's
    /// non-deterministic rule at line 51, scheduled by timer).
    Duration probe_patience = 5;
    /// Membership policy consulted when this replica plays the reconfigurer
    /// role; null selects recon::ReplaceSuspectsPolicy.  Non-owning.
    recon::PlacementPolicy* placement_policy = nullptr;
    /// Cluster knowledge (zones, load, spare-pool depth) handed to the
    /// placement policy; replicas run no failure detector, so the suspect
    /// set stays empty here.
    std::function<recon::PlacementContext(ShardId)> placement_context;
    /// If nonzero, this replica periodically retries transactions that have
    /// been prepared but undecided for longer than this (coordinator
    /// recovery, line 70).
    Duration retry_timeout = 0;
    /// ABLATION (experiment E14): the leader ships ACCEPTs to its followers
    /// directly instead of delegating to the coordinator.  One message
    /// delay faster, but concentrates the replication fan-out on the
    /// leader — the design trade-off Sec. 3 discusses.
    bool leader_ships_accepts = false;
    /// Debug cross-check: recompute every vote with the flat L1/L2 log scan
    /// and abort on any divergence from the witness index (decision or
    /// witness sets); likewise every read watermark against a scan of the
    /// whole log.  Works in every build type, not just -DNDEBUG-less ones;
    /// sweeps and the randomized suites turn it on.
    bool check_certifier_index = false;
    /// Versions per object the snapshot store retains for CSN reads; older
    /// versions are evicted (reads below them report unserved, never wrong).
    std::size_t snapshot_history_depth = 16;
    Monitor* monitor = nullptr;
  };

  Replica(rt::Runtime& rt, ProcessId id, Options options);
  /// Sim-harness compatibility: binds to `net`'s embedded runtime.
  Replica(sim::Simulator& sim, sim::Network& net, ProcessId id, Options options);

  // --- bootstrap ------------------------------------------------------------

  /// Installs the pre-activated initial configuration (all shards' views).
  void bootstrap(Status status,
                 const std::map<ShardId, configsvc::ShardConfig>& all_views);

  /// Initializes a fresh spare: knows the views but holds no shard state.
  void bootstrap_spare(const std::map<ShardId, configsvc::ShardConfig>& all_views);

  // --- client API -------------------------------------------------------------

  /// certify(t, l) with this replica as coordinator and a co-located client:
  /// the decision is delivered through `cb` with no extra message delay
  /// (paper Sec. 3: "co-locating the client with the transaction
  /// coordinator").  The callback's Time is csn(t).ts for commits (0 for
  /// aborts).  `origin` is the co-located client's process id; when set, a
  /// successor coordinator that finishes the transaction after this replica
  /// crashed routes the decision there as DECISION_CLIENT instead of
  /// dropping it on the floor.
  void certify_local(TxnId txn, const tcs::Payload& payload,
                     std::function<void(tcs::Decision, Time)> cb,
                     ProcessId origin = kNoProcess);

  /// Batched certify with this replica as coordinator of every item: the
  /// batch is grouped into one PREPARE_BATCH per participant shard (one
  /// message, one ordered run of log appends at the leader).  Decisions are
  /// delivered per transaction through `cb`; the items' 2PC instances stay
  /// independent (distributivity is what makes the grouping sound, not a
  /// change to the decision rule).  A batch of one degenerates to
  /// certify_local.  `origin` as in certify_local.
  void certify_batch_local(
      const std::vector<std::pair<TxnId, tcs::Payload>>& batch,
      std::function<void(TxnId, tcs::Decision, Time)> cb,
      ProcessId origin = kNoProcess);

  // --- recovery API -------------------------------------------------------------

  /// Initiates reconfiguration of shard s (line 33).  Any process may call
  /// this when it suspects a failure in s.
  void reconfigure(ShardId s);

  /// Coordinator recovery for the transaction in slot k (line 70).
  void retry(Slot k);

  // --- introspection (used by monitors, tests, benches) ---------------------

  ShardId shard() const { return options_.shard; }
  Status status() const { return status_; }
  bool initialized() const { return initialized_; }
  Epoch epoch() const { return view(options_.shard).epoch; }
  Epoch new_epoch() const { return new_epoch_; }
  const ReplicaLog& log() const { return log_; }
  Slot next() const { return next_; }
  const configsvc::ShardConfig& view(ShardId s) const;
  bool is_probing() const { return engine_.in_flight(); }
  /// The shared reconfigurer core this replica's reconfigurer role runs on
  /// (stats + spare-ledger introspection for harnesses).
  const recon::Engine& recon_engine() const { return engine_; }

  // --- CSN read surface ------------------------------------------------------
  //
  // Read-only transactions execute at a snapshot c without any certification
  // message: pick c at or below every involved replica's watermark and serve
  // each object from the replica's snapshot store.  Soundness rides on the
  // all-follower-ack rule (Fig. 1 line 26): a commit with csn(t).ts below
  // this replica's watermark either sits decided in the log (its writes are
  // in the store) or is still prepared here (and then gates the watermark).

  /// The largest snapshot this replica can currently serve: just below the
  /// smallest prepare stamp among prepared-undecided slots, or `now` when
  /// every filled slot is decided.
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
    std::set<ProcessId> follower_acks;
  };
  struct CoordState {
    TxnMeta meta;
    std::map<ShardId, ShardProgress> progress;
    bool decided = false;
    /// Set for co-located clients; second arg is csn(t).ts (0 for aborts).
    std::function<void(tcs::Decision, Time)> local_cb;
    /// Per-shard payload projections, kept so the coordinator can re-send a
    /// PREPARE that died with a crashed leader (empty for ⊥ retries).
    std::map<ShardId, tcs::Payload> shard_payloads;
    Time last_driven = 0;  ///< when PREPAREs were last (re-)sent
  };

  // Fig. 1 handlers.
  void start_certification(TxnMeta meta, const tcs::Payload* full_payload,
                           std::function<void(tcs::Decision, Time)> local_cb);
  /// CERTIFY_BATCH: certify_batch_local's shape, but decisions go back to
  /// `client` as DECISION_CLIENT messages.
  void certify_batch_remote(ProcessId client,
                            const std::vector<CertifyRequest>& items);
  void handle_prepare(ProcessId from, const Prepare& m);            // line 4
  void handle_prepare_ack(ProcessId from, const PrepareAck& m);     // line 18
  void handle_accept(ProcessId from, const Accept& m);              // line 21
  void handle_accept_ack(ProcessId from, const AcceptAck& m);       // line 26
  void handle_decision(ProcessId from, const DecisionMsg& m);       // line 30

  // Batched variants: apply the items in order through the scalar logic,
  // then coalesce the outbound messages (one ack batch per destination).
  void handle_prepare_batch(ProcessId from, const PrepareBatch& m);
  void handle_prepare_ack_batch(ProcessId from, const PrepareAckBatch& m);
  void handle_accept_batch(ProcessId from, const AcceptBatch& m);
  void handle_accept_ack_batch(ProcessId from, const AcceptAckBatch& m);
  void handle_probe(ProcessId from, const Probe& m);                // line 40
  void handle_new_config(ProcessId from, const NewConfig& m);       // line 56
  void handle_new_state(ProcessId from, const NewState& m);         // line 61
  void handle_config_change(const configsvc::ConfigChange& m);      // line 67

  // recon::StackHooks — the substrate adapter for the shared reconfigurer
  // core (recon::Engine), which runs lines 33-55 + the CAS spare ledger.
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

  /// Prepares a transaction at the leader and replies with PREPARE_ACK
  /// (lines 6-17).
  void prepare_and_ack(ProcessId coordinator, const Prepare& m);

  /// Lines 6-17 without the sends: appends (or re-reads) the slot and
  /// returns the ack to ship.  Shared by the scalar and batched paths.
  PrepareAck prepare_txn(const Prepare& m);

  /// Lines 19-20's bookkeeping without the sends: records the ack against
  /// the coordination and fills *accept for replication.  Returns false if
  /// the line-19 guard rejects the ack (stale epoch, unknown or decided
  /// coordination).
  bool note_prepare_ack(const PrepareAck& m, Accept* accept);

  /// Lines 22-25 without the send: applies the ACCEPT and fills *ack plus
  /// the coordinator it must go to.  Returns false if the line-22 guard
  /// rejects it.
  bool apply_accept(ProcessId from, const Accept& m, AcceptAck* ack,
                    ProcessId* coordinator);

  struct Witnesses {
    std::vector<const tcs::Payload*> l1, l2;
    std::vector<TxnId> committed, prepared;
  };
  /// The L1/L2 sets (and their transaction ids) for a vote at `slot` by
  /// flat log scan — kept as the reference implementation the witness index
  /// is cross-checked against (Options::check_certifier_index).
  Witnesses collect_witnesses(Slot slot) const;

  /// Computes the vote for the freshly appended slot (line 12) through the
  /// witness index, reporting the witness sets to the monitor.
  tcs::Decision compute_vote(Slot slot, const tcs::Payload& l);

  /// Aborts the process if the index's vote/witnesses for `slot` diverge
  /// from the flat scan (no-op unless check_certifier_index).
  void check_index_against_flat(Slot slot, tcs::Decision indexed_vote,
                                const tcs::Payload& l,
                                const WitnessIndex::Witnesses& w) const;

  /// Sets-only variant for forced-abort slots (Fig. 1 line 15): the vote is
  /// a protocol constant there, so only T_s/P_s are comparable to the flat
  /// scan (no-op unless check_certifier_index).
  void check_index_sets_against_flat(Slot slot,
                                     const WitnessIndex::Witnesses& w) const;

  /// Line 26's standing "when" condition, evaluated after every relevant
  /// event for the given transaction.
  void check_coordination(TxnId txn);

  /// Refiles every decided-commit log entry into the snapshot store under
  /// its csn (log replacement / leader takeover).
  void rebuild_snapshot_store();

  void arm_retry_timer();
  /// One retry-timer firing: collect the stale prepared slots, then
  /// rate-limit and re-drive each exactly once (line 70), then re-drive
  /// undecided coordinations.  Collect-then-act so nothing mutates
  /// prepared_at_ while it is being iterated.
  void run_retry_tick();
  /// Re-sends PREPAREs of undecided coordinated transactions to the current
  /// leaders (see the definition for why the line-70 retry cannot cover
  /// them).  `driven_this_tick` holds the transactions the slot-retry pass
  /// of the same tick already re-drove, to assert none is driven twice.
  void redrive_coordinations(const std::set<TxnId>& driven_this_tick);

  Options options_;
  configsvc::CsClient cs_;
  fd::Responder fd_responder_;
  Monitor* monitor_;
  /// The reconfigurer role (lines 33-55), shared with every other stack
  /// through recon::Engine; this replica only supplies the hooks above.
  recon::Engine engine_;

  // Fig. 1 process state.
  Status status_ = Status::kReconfiguring;
  bool initialized_ = false;
  Epoch new_epoch_ = kNoEpoch;
  std::map<ShardId, configsvc::ShardConfig> views_;  // epoch/members/leader arrays
  ReplicaLog log_;
  Slot next_ = 0;
  /// Object-indexed view of log_ (the certification hot path); maintained on
  /// every prepare/decide, rebuilt on log replacement and leader takeover.
  WitnessIndex index_;

  // Coordinator state.  Decided entries stay as slim tombstones (so a late
  // retry cannot re-coordinate); the index below keeps the re-drive scan
  // bounded by the undecided set.
  std::map<TxnId, CoordState> coord_;
  std::set<TxnId> undecided_coords_;

  // Local bookkeeping for the retry timer: every prepared slot, with when it
  // was prepared or last re-driven.  read_watermark() reads its slots.
  std::map<Slot, Time> prepared_at_;

  /// Committed multi-version state, filed under Csn{csn_ts, txn}; rebuilt
  /// from the log on NEW_STATE / leader takeover.
  store::SnapshotStore store_;
};

}  // namespace ratc::commit
