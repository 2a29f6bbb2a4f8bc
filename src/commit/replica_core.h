// The replica core shared by both replica substrates.
//
// Fig. 7's certification path is Fig. 1's, except that ACCEPT and DECISION
// travel as one-sided writes; only reconfiguration really differs (Fig. 8
// vs Fig. 1 lines 33-69).  ReplicaCore is that shared path plus Fig. 1's
// per-shard reconfiguration, and commit::Replica (messages) and
// rdma::Replica (the RDMA fabric) derive from it.
//
// The core owns the certification state — the log, `next`, the witness
// index, the coordinator map, the retry bookkeeping and the snapshot store —
// and holds the one copy of every routine over it: the certify entry points,
// the leader's prepare and vote (with the flat-scan cross-check), the
// coordinator's PREPARE_ACK bookkeeping and decision rule, the follower
// slot fill and decision apply, the retry timer, the read watermark, and
// the takeover/install bookkeeping a new configuration needs.
//
// The coordinator state is flat, because every transaction allocates it.
// One CoordState per transaction sits in a hashed table that is only looked
// up; the ordered undecided set fixes the re-drive order.  A CoordState
// keeps its per-shard progress in a vector parallel to meta.participants,
// and it holds the client's payload and the meta its PREPAREs carry as
// shared handles: the payload is projected once per shard when the PREPAREs
// go out, and again only when one is re-sent.  The leader's PREPARE_ACK and
// the coordinator's ACCEPTs forward the PREPARE's objects; each replica
// copies them into its own log.
// A shard's follower acks are a bitmask over positions in members_of(s):
// acks at another epoch are rejected, and a PREPARE_ACK at a new epoch or
// slot clears the mask, so every bit refers to the one view it was set in.
//
// It also owns Fig. 1's reconfiguration: the per-shard views (the epoch,
// members and leader arrays), the configuration-service client, the
// PROBE / NEW_CONFIG / NEW_STATE / CONFIG_CHANGE handlers and the four
// per-shard recon::StackHooks (fetch_latest, fetch_members_at, submit,
// activate) through which the shared recon::Engine runs lines 33-55.  This
// is the default: the message-passing stack uses it as is, and rdma's Fig. 4a
// strawman is exactly this reconfiguration over one-sided writes.  rdma's
// safe mode overrides the views and the four hooks with Fig. 8's global
// protocol.
//
// A substrate supplies only what differs, through the virtual hooks below:
//   * replicate: the leader's results reach one follower (ACCEPT messages
//     vs one-sided RAccept writes);
//   * ship_decision: a decision reaches a shard's members (DECISION
//     messages vs RDecision writes);
//   * on_probed, and the view and reconfiguration hooks, where its
//     reconfiguration is not Fig. 1's.
// The invariant monitor (commit::Monitor, one for both stacks) sees this
// shared code through CertificationObserver: votes, PREPARE_ACKs, slot
// writes, decisions at the coordinator and at each replica, client
// decisions and every installed epoch.  Only what a substrate's wire shows
// reaches it through that substrate's tap.
#pragma once

#include <bitset>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "commit/log.h"
#include "commit/messages.h"
#include "commit/witness_index.h"
#include "common/flat_map.h"
#include "common/shared.h"
#include "configsvc/client.h"
#include "configsvc/config.h"
#include "fd/failure_detector.h"
#include "recon/engine.h"
#include "sim/process.h"
#include "store/versioned_store.h"
#include "tcs/certifier.h"
#include "tcs/csn.h"
#include "tcs/shard_map.h"

namespace ratc::commit {

enum class Status { kLeader, kFollower, kReconfiguring };

inline const char* to_string(Status s) {
  switch (s) {
    case Status::kLeader: return "leader";
    case Status::kFollower: return "follower";
    case Status::kReconfiguring: return "reconfiguring";
  }
  return "?";
}

class ReplicaCore;

/// What the invariant monitor observes of the shared core, on both
/// substrates.  Each event is raised only when an observer is set, on the
/// acting replica's thread, and reads only that replica's state; none of
/// them changes what the core sends, schedules or draws.
class CertificationObserver {
 public:
  virtual ~CertificationObserver() = default;
  /// A leader voted on `slot` (Fig. 1 line 12) against the witness sets
  /// T_s (committed) and P_s (prepared); forced aborts report them too.
  virtual void on_vote_computed(ShardId shard, Epoch epoch, Slot slot, TxnId txn,
                                tcs::Decision vote, const tcs::Payload& payload,
                                std::vector<TxnId> committed_against,
                                std::vector<TxnId> prepared_against) = 0;
  /// A coordinator decided `txn` and is about to persist the decision of
  /// participant shard `shard`'s `slot` (lines 28-29, Fig. 7 lines 99-100).
  virtual void on_decided(ShardId shard, Slot slot, TxnId txn, tcs::Decision d) = 0;
  /// A coordinator reports a decision to the client (line 27): through a
  /// co-located client's callback or a DECISION_CLIENT message.
  virtual void on_client_decision(TxnId txn, tcs::Decision d) = 0;
  /// `replica` is about to record the decision of its `slot` (line 32,
  /// Fig. 7 line 102).
  virtual void on_decision_applied(const ReplicaCore& replica, Slot slot, TxnId txn,
                                   tcs::Decision d) = 0;
  /// `replica` has just written what its `slot` holds (the transaction,
  /// payload and vote the invariants compare): a leader's append (lines
  /// 9-16), a follower's fill (line 24, Fig. 7 line 95) or a decision that
  /// fills a hole (line 32).  A log replaced wholesale raises
  /// on_epoch_installed instead.
  virtual void on_slot_written(const ReplicaCore& replica, Slot slot) = 0;
  /// `replica`, a leader, produced `ack` for a PREPARE (lines 7 and 17),
  /// with its log as the ack describes it; on a batch, once per item.
  virtual void on_prepare_ack(const ReplicaCore& replica, const PrepareAck& ack) = 0;
  /// `replica` installed a new epoch of its shard, as the leader taking over
  /// its log (line 59, Fig. 8 line 145) or as a follower installing the
  /// transferred one (lines 63-66, Fig. 8 lines 148-153).
  virtual void on_epoch_installed(const ReplicaCore& replica) = 0;
};

class ReplicaCore : public sim::Process, protected recon::StackHooks {
 public:
  /// The options both substrates share.
  struct Options {
    ShardId shard = 0;
    const tcs::ShardMap* shard_map = nullptr;
    const tcs::Certifier* certifier = nullptr;
    /// Configuration-service endpoints.
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
    /// Debug cross-check: recompute every vote with the flat L1/L2 log scan
    /// and abort on any divergence from the witness index (decision or
    /// witness sets); likewise every read watermark against a scan of the
    /// whole log.  Works in every build type, not just -DNDEBUG-less ones;
    /// sweeps and the randomized suites turn it on.
    bool check_certifier_index = false;
  };

  // --- client API -------------------------------------------------------------

  /// certify(t, l) with this replica as coordinator and a co-located client:
  /// the decision is delivered through `cb` with no extra message delay
  /// (paper Sec. 3: "co-locating the client with the transaction
  /// coordinator").  The callback's Time is csn(t).ts for commits (0 for
  /// aborts).  `origin` is the co-located client's process id; when set, a
  /// successor coordinator that finishes the transaction after this replica
  /// crashed routes the decision there as DECISION_CLIENT instead of
  /// dropping it on the floor.
  void certify_local(TxnId txn, Shared<tcs::Payload> payload,
                     std::function<void(tcs::Decision, Time)> cb,
                     ProcessId origin = kNoProcess);

  /// Batched certify with this replica as coordinator of every item: the
  /// batch is grouped into one PREPARE_BATCH per participant shard (one
  /// message, one ordered run of log appends at the leader).  Decisions are
  /// delivered per transaction through `cb`; the items' 2PC instances stay
  /// independent (distributivity is what makes the grouping sound, not a
  /// change to the decision rule).  A lone PREPARE keeps the scalar message,
  /// so a batch of one sends exactly what certify_local does.  `origin` as
  /// in certify_local.
  void certify_batch_local(
      const std::vector<std::pair<TxnId, Shared<tcs::Payload>>>& batch,
      std::function<void(TxnId, tcs::Decision, Time)> cb,
      ProcessId origin = kNoProcess);

  /// Coordinator recovery for the transaction in slot k (line 70).
  void retry(Slot k);

  /// Initiates reconfiguration of shard s (line 33).  Any process may call
  /// this when it suspects a failure in s.  The attempt lifecycle — probe /
  /// descend epoch search, placement, CAS with loser spare-release — is
  /// recon::Engine's; start() refuses while an attempt is in flight (line
  /// 34's probing guard).
  void reconfigure(ShardId s) { engine_.start({s}); }

  // --- introspection (used by monitors, tests, benches) ---------------------

  ShardId shard() const { return options_.shard; }
  Status status() const { return status_; }
  bool initialized() const { return initialized_; }
  Epoch epoch() const { return epoch_of(options_.shard); }
  Epoch new_epoch() const { return new_epoch_; }
  const ReplicaLog& log() const { return log_; }
  Slot next() const { return next_; }
  bool is_probing() const { return engine_.in_flight(); }
  /// The shared reconfigurer core this replica's reconfigurer role runs on
  /// (stats + spare-ledger introspection for harnesses).
  const recon::Engine& recon_engine() const { return engine_; }

  /// Shard s in this replica's Fig. 1 view (invalid if unknown).
  const configsvc::ShardConfig& view(ShardId s) const;
  /// Shard s in this replica's current view: its epoch, leader and members
  /// (config order).  Fig. 1's per-shard views unless the substrate's
  /// reconfiguration keeps another view (rdma's global configuration).
  virtual Epoch epoch_of(ShardId s) const { return view(s).epoch; }
  virtual ProcessId leader_of(ShardId s) const { return view(s).leader; }
  virtual const std::vector<ProcessId>& members_of(ShardId s) const {
    return view(s).members;
  }

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

 protected:
  /// A coordination's progress at one participant shard s.
  struct ShardProgress {
    bool have_prepare_ack = false;
    Epoch epoch = kNoEpoch;
    Slot slot = kNoSlot;
    tcs::Decision vote = tcs::Decision::kAbort;
    Time prepare_ts = 0;  ///< leader's CSN stamp; csn(t).ts = max over shards
    /// Bit i: members_of(s)[i] acknowledged the result replicated at
    /// (epoch, slot).  note_prepare_ack clears it whenever either changes,
    /// and an epoch's membership never changes, so the positions stay
    /// those of the view the bits were set under.  A member past the last
    /// bit throws std::out_of_range.
    std::bitset<64> follower_acks;
  };

  /// `name` is the process name; `observer` may be null.
  ReplicaCore(rt::Runtime& rt, ProcessId id, std::string name, const Options& options,
              CertificationObserver* observer);

  // --- substrate hooks ---------------------------------------------------------

  /// Line 20 (Fig. 7 line 93): ships the leader's results `acks` to one
  /// follower; more than one item only on the batched path.  Followers are
  /// shipped in config order on the scalar path and in pid order on the
  /// batched one.
  virtual void replicate(ProcessId follower, std::span<const PrepareAck* const> acks) = 0;
  /// Lines 28-29 (Fig. 7 lines 99-100): persists the decision of the
  /// coordination's slot `pr` at every member of shard s.
  virtual void ship_decision(ShardId s, const ShardProgress& pr, TxnId txn,
                             tcs::Decision decision, Time csn_ts) = 0;
  /// The leader's reply to a PREPARE / PREPARE_BATCH coordinator; the
  /// message-passing stack's leader-driven ablation also ships ACCEPTs here.
  virtual void reply_prepare_ack(ProcessId coordinator, PrepareAck ack);
  virtual void reply_prepare_ack_batch(ProcessId coordinator, PrepareAckBatch acks);

  /// Runs when a PROBE freezes this replica (lines 42-44), before the ack:
  /// rdma's safe mode severs its incoming connections here (Fig. 8 line 114).
  virtual void on_probed() {}

  // --- what the substrates call -------------------------------------------------

  /// Dispatches every message the core handles: configuration-service
  /// replies, failure-detector pings, the certification path (CERTIFY,
  /// CERTIFY_BATCH, PREPARE, PREPARE_ACK and their batches) and Fig. 1's
  /// reconfiguration (PROBE, PROBE_ACK, NEW_CONFIG, NEW_STATE,
  /// CONFIG_CHANGE); false for any other message.
  bool handle_core_message(ProcessId from, const sim::AnyMessage& msg);

  /// The coordination's progress at shard s, or null if the coordination is
  /// unknown, decided, or has not heard from s.
  ShardProgress* undecided_progress(TxnId txn, ShardId s);

  /// Records follower f's ACCEPT_ACK (or its NIC's ack of the one-sided
  /// ACCEPT) in `pr`, the progress at shard s; a non-member's ack counts
  /// for nothing.
  void note_follower_ack(ShardId s, ShardProgress& pr, ProcessId f) const;

  /// Line 26's standing "when" condition, evaluated after every relevant
  /// event for the given transaction.
  void check_coordination(TxnId txn);

  /// Follower slot fill (Fig. 1 line 24, Fig. 7 line 95): records the
  /// leader's prepared result `a` (an ACCEPT or its one-sided write) at
  /// a.slot.  The caller decides whether the slot may be overwritten.
  template <typename A>
  void fill_slot(const A& a);

  /// Line 32 (Fig. 7 line 102): records the decision of `slot` and advances
  /// the committed multi-version state.
  void apply_decision(Slot slot, TxnId txn, tcs::Decision decision, Time csn_ts);

  /// Leadership takeover (line 59, Fig. 8 line 145): next = the last filled
  /// slot, and the index, snapshot store and retry bookkeeping cover the
  /// inherited log.  Call it after updating the view: it raises
  /// on_epoch_installed last.
  void take_over_log();
  /// Follower install (lines 63-66, Fig. 8 lines 148-153): replaces the log
  /// with the leader's and rebuilds what is derived from it.  Call it after
  /// updating the view, as take_over_log.
  void install_log(const ReplicaLog& log);

  void arm_retry_timer();

  // recon::StackHooks: Fig. 1's per-shard configuration-service adapter
  // for recon::Engine, which runs lines 33-55 plus the CAS spare ledger.
  void fetch_latest(const std::vector<ShardId>& shards,
                    std::function<void(bool, recon::Snapshot)> cb) override;
  void fetch_members_at(ShardId shard, Epoch epoch,
                        std::function<void(bool, std::vector<ProcessId>)> cb) override;
  void send_probe(ProcessId target, Epoch new_epoch) override;
  std::vector<ProcessId> reserve_spares(ShardId shard, std::size_t n) override;
  void release_spares(ShardId shard, const std::vector<ProcessId>& spares) override;
  void submit(const recon::Proposal& proposal, std::function<void(bool)> done) override;
  void activate(const recon::Proposal& proposal) override;
  recon::PlacementContext placement_context(ShardId shard) override;

  Options options_;
  configsvc::CsClient cs_;
  /// The reconfigurer role (lines 33-55), shared with every other stack
  /// through recon::Engine.
  recon::Engine engine_;

  // Fig. 1 process state the reconfiguration install writes.
  Status status_ = Status::kReconfiguring;
  bool initialized_ = false;
  Epoch new_epoch_ = kNoEpoch;
  /// Epoch/members/leader arrays, indexed by ShardId and sized from the
  /// shard map; an entry never written is the invalid view.
  std::vector<configsvc::ShardConfig> views_;

 private:
  /// One coordination (Fig. 1 lines 2-3 and 18-30).  Flat: the per-shard
  /// progress is a vector parallel to meta->participants (sized to it
  /// once), and the full payload is the client's own object.
  struct CoordState {
    Shared<TxnMeta> meta;  ///< the one every PREPARE of the coordination carries
    /// progress[i] is the progress at meta->participants[i].
    std::vector<ShardProgress> progress;
    bool decided = false;
    /// Set for co-located clients; second arg is csn(t).ts (0 for aborts).
    std::function<void(tcs::Decision, Time)> local_cb;
    /// The full payload, kept so the coordinator can re-send (re-projected)
    /// a PREPARE that died with a crashed leader (unset for ⊥ retries).
    std::optional<Shared<tcs::Payload>> payload;
    Time last_driven = 0;  ///< when PREPAREs were last (re-)sent
  };

  /// c's progress at participant s, or null if s is not a participant.
  static ShardProgress* progress_at(CoordState& c, ShardId s);

  Shared<TxnMeta> meta_for(TxnId txn, const tcs::Payload& payload, ProcessId client) const;
  /// Line 27: reports `d` to the client — through the co-located client's
  /// callback `cb` if set, else as DECISION_CLIENT to `client` if known.
  void decide_to_client(TxnId txn, ProcessId client,
                        const std::function<void(tcs::Decision, Time)>& cb,
                        tcs::Decision d, Time csn_ts);
  /// Opens the coordination of meta->txn (line 2) and sends its PREPAREs —
  /// or, when `batch` is set, queues them in the per-shard PREPARE_BATCHes.
  /// A null `full_payload` is the retry path's ⊥.
  void start_certification(Shared<TxnMeta> meta, const Shared<tcs::Payload>* full_payload,
                           std::function<void(tcs::Decision, Time)> local_cb,
                           std::map<ShardId, PrepareBatch>* batch = nullptr);
  /// The batched entry points: certify_batch_local, and CERTIFY_BATCH with
  /// decisions going back to `client` as DECISION_CLIENT (null `cb`).
  template <typename Items>
  void certify_batch(const Items& items, ProcessId client,
                     const std::function<void(TxnId, tcs::Decision, Time)>& cb);

  /// The certification path's part of handle_core_message.
  bool handle_certification(ProcessId from, const sim::AnyMessage& msg);

  // Fig. 1 reconfiguration install.
  void handle_probe(ProcessId from, const Probe& m);                // line 40
  void handle_new_config(const NewConfig& m);                       // line 56
  void handle_new_state(ProcessId from, const NewState& m);         // line 61
  void handle_config_change(const configsvc::ConfigChange& m);      // line 67

  void handle_prepare(ProcessId from, const Prepare& m);            // line 4
  void handle_prepare_batch(ProcessId from, const PrepareBatch& m);
  void handle_prepare_ack(const PrepareAck& m);                     // line 18
  void handle_prepare_ack_batch(const PrepareAckBatch& m);

  /// Lines 6-17 without the sends: appends (or re-reads) the slot and
  /// returns the ack to ship.  Shared by the scalar and batched paths.
  PrepareAck prepare_txn(const Prepare& m);

  /// Lines 19-20's bookkeeping without the sends: records the ack against
  /// the coordination.  Returns false if the line-19 guard rejects the ack
  /// (stale epoch, unknown or decided coordination).
  bool note_prepare_ack(const PrepareAck& m);

  struct Witnesses {
    std::vector<const tcs::Payload*> l1, l2;
    std::vector<TxnId> committed, prepared;
  };
  /// The L1/L2 sets (and their transaction ids) for a vote at `slot` by
  /// flat log scan — kept as the reference implementation the witness index
  /// is cross-checked against (Options::check_certifier_index).
  Witnesses collect_witnesses(Slot slot) const;

  /// Computes the vote for the freshly appended slot (line 12) through the
  /// witness index, reporting the witness sets to the observer.
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

  /// Refiles every decided-commit log entry into the snapshot store under
  /// its csn (log replacement / leader takeover).
  void rebuild_snapshot_store();

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

  CertificationObserver* observer_;
  fd::Responder fd_responder_;

  // Fig. 1 certification state.
  ReplicaLog log_;
  Slot next_ = 0;
  /// Object-indexed view of log_ (the certification hot path); maintained on
  /// every prepare/decide, rebuilt on log replacement and leader takeover.
  WitnessIndex index_;

  // Coordinator state.  Decided entries stay as slim tombstones (so a late
  // retry cannot re-coordinate); the undecided ones, in id order, keep the
  // re-drive scan bounded by the undecided set and fix its order.  coord_
  // is only looked up, never iterated, so it is hashed; it must stay
  // node-based, because check_coordination holds a CoordState& while the
  // client callback may re-enter start_certification and grow the table,
  // and undecided_coords_ points into it.
  std::unordered_map<TxnId, CoordState> coord_;
  FlatMap<TxnId, CoordState*> undecided_coords_;

  // Local bookkeeping for the retry timer: every prepared slot, with when it
  // was prepared or last re-driven.  read_watermark() reads its slots.  A
  // leader appends here; a follower fill or a decision inserts or erases.
  FlatMap<Slot, Time> prepared_at_;

  /// Committed multi-version state, filed under Csn{csn_ts, txn}; rebuilt
  /// from the log on a state transfer or leader takeover.
  store::SnapshotStore store_;
};

template <typename A>
void ReplicaCore::fill_slot(const A& a) {
  LogEntry& e = log_.at(a.slot);
  e.txn = a.txn;
  e.payload = *a.payload;  // the follower's own copy
  e.vote = a.vote;
  e.phase = Phase::kPrepared;
  e.meta = *a.meta;
  e.prepare_ts = a.prepare_ts;  // the leader's CSN stamp, replicated
  prepared_at_[a.slot] = rt().now();
  index_.on_prepared(log_, a.slot);
  if (observer_) observer_->on_slot_written(*this, a.slot);
}

/// The replication record (an Accept or rdma's RAccept) for a leader's
/// PREPARE_ACK; it carries the ack's payload and meta objects on.
template <typename A>
A accept_for(const PrepareAck& ack) {
  A a;
  a.epoch = ack.epoch;
  a.shard = ack.shard;
  a.slot = ack.slot;
  a.txn = ack.txn;
  a.payload = ack.payload;
  a.vote = ack.vote;
  a.meta = ack.meta;
  a.prepare_ts = ack.prepare_ts;
  return a;
}

}  // namespace ratc::commit
