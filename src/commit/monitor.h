// Runtime invariant monitor for both replica stacks.
//
// The paper proves the message-passing protocol (Fig. 1) and the RDMA one
// (Figs. 7-8) with one set of invariants, Figs. 3 and 5 plus Sec. 5's
// property (*), and both stacks run one commit::ReplicaCore.  This monitor
// checks those invariants online over either stack and collects what the
// TCS-LL checker (Fig. 6) needs afterwards.  Most observations come from
// the core itself, through CertificationObserver.  What only a substrate's
// wire shows comes through a thin tap: this class's own network tap on the
// message stack, and rdma::MonitorTap (rdma/monitor_tap.h) on the rdma one.
//
//   inv  property                          message stack         rdma stack
//   ---  --------------------------------  --------------------  --------------------
//   1    follower prefix = the leader's    ACCEPT_ACK send       write landing
//        log at PREPARE_ACK
//   2    a fully accepted slot persists    on_epoch_installed    on_epoch_installed
//        into every later epoch ...
//          ... with the prefix before it   on_epoch_installed    on_epoch_installed
//          equal to the leader's log at
//          PREPARE_ACK
//   3    no ACCEPT_ACK below an            ACCEPT_ACK send       not checked
//        acknowledged PROBE epoch
//   4a   one decision per slot of a shard  on_decided            on_decided
//   4b   one decision per transaction      on_decided,           on_decided,
//                                          on_client_decision    on_client_decision
//   5    a process skipped by an accepted  NEW_CONFIG send       CONFIG_PREPARE and
//        epoch never rejoins later                               NEW_CONFIG sends
//   6/9  replication records agree per     ACCEPT send           RAccept write
//        (epoch, slot) and (epoch, txn)
//   8    new_epoch >= epoch                on_epoch_installed    on_epoch_installed
//   10   a transaction fills one slot      on_epoch_installed    on_epoch_installed
//   11a  one accepted result per slot      acceptance complete   acceptance complete
//   11b  one accepted slot per txn         (every follower's     (every follower's
//                                          ACCEPT_ACK sent)      write landed)
//   12b  a commit decision lands only on   on_decision_applied   on_decision_applied
//        a commit vote
//   13   a replication write lands in the  no one-sided writes   write landing
//        epoch it was prepared at
//
// An acceptance opens at the leader's PREPARE_ACK (on_prepare_ack), on both
// stacks.  Invariants 1 and 2 compare logs with the leader's log as of that
// PREPARE_ACK, which the monitor keeps once per (leader, shard, epoch) as a
// reference log: the leader's log seeds it at its first PREPARE_ACK of the
// epoch, and each of the leader's slot writes (on_slot_written) keeps it
// current.  An acceptance points at the reference's current version.  A
// leader appends, so a write past a version's end extends it in place; a
// write that changes a slot below the end of a version some acceptance
// points at copies that version first, so each version stays what its
// acceptances saw.  Only a write into one of the leader's holes or into its
// memory from outside (a stale or forged one-sided write) does that, which
// is rare.  The reference holds copies: every read of a process's log
// happens on that process's own event.  The costs are linear in the log,
// plus one copy of the reference per such rewrite:
//   * a slot write costs one copy of the slot;
//   * Inv 1 keeps, per (follower, version), how many leading slots were
//     found equal; a follower write below that mark pulls it back, and a
//     check walks only the slots past it;
//   * Inv 2's prefix comparison walks each lower-epoch version once per
//     install, up to its highest complete acceptance.
// Inv 3 is message-stack only: on rdma, a probed replica that still
// coordinates at its old epoch writes RAccept into its own memory after its
// PROBE_ACK, because a self-write ignores connection state (rdma/fabric.h).
// Whether the model or Inv 3's reach over local stores is wrong is an open
// question.
//
// Violations are reported to a ViolationSink rather than asserted, so tests
// can also verify that deliberately broken variants DO violate them; each
// distinct report is kept once.
#pragma once

#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "checker/tcsll.h"
#include "commit/messages.h"
#include "commit/replica_core.h"
#include "common/types.h"
#include "common/violation.h"
#include "configsvc/config.h"
#include "sim/network.h"

namespace ratc::commit {

/// One replicated slot result as a tap sees it: a PREPARE_ACK, an ACCEPT or
/// an ACCEPT's one-sided write.
struct SlotRecord {
  ShardId shard = 0;
  Epoch epoch = kNoEpoch;
  Slot slot = kNoSlot;
  TxnId txn = 0;
  const tcs::Payload* payload = nullptr;
  tcs::Decision vote = tcs::Decision::kAbort;

  /// From any record carrying these fields.
  template <typename A>
  static SlotRecord of(const A& a) {
    return {a.shard, a.epoch, a.slot, a.txn, a.payload.get(), a.vote};
  }
};

/// Thread-safety: every entry point locks an internal mutex, so one Monitor
/// can observe a multithreaded rt::ThreadedRuntime run.  The process-state
/// reads (logs, epochs) are always of the *acting* process — the runtime
/// fires on_send on the sender's worker, and the core events fire on the
/// acting replica's — so they need no further synchronization.  violations()
/// returns a reference and is only safe after the runtime has stopped (or on
/// the single-threaded simulator).
class Monitor : public sim::NetworkObserver, public CertificationObserver {
 public:
  explicit Monitor(rt::Runtime& rt) : rt_(rt) {}

  // --- wiring ---------------------------------------------------------------

  void register_replica(const ReplicaCore* r);
  /// Registers shard's configuration at config.epoch (the first
  /// registration of an epoch wins) and checks Inv 5 against it.
  void register_config(ShardId shard, const configsvc::ShardConfig& config);
  /// NEW_CONFIG handed `leader` its shard's configuration (line 50).
  void on_new_config(ProcessId leader, Epoch epoch, const std::vector<ProcessId>& members);

  // --- core events (CertificationObserver) ----------------------------------

  void on_vote_computed(ShardId shard, Epoch epoch, Slot slot, TxnId txn,
                        tcs::Decision vote, const tcs::Payload& payload,
                        std::vector<TxnId> committed_against,
                        std::vector<TxnId> prepared_against) override;
  void on_decided(ShardId shard, Slot slot, TxnId txn, tcs::Decision d) override;
  void on_client_decision(TxnId txn, tcs::Decision d) override;
  void on_decision_applied(const ReplicaCore& replica, Slot slot, TxnId txn,
                           tcs::Decision d) override;
  void on_slot_written(const ReplicaCore& replica, Slot slot) override;
  void on_prepare_ack(const ReplicaCore& replica, const PrepareAck& ack) override;
  void on_epoch_installed(const ReplicaCore& replica) override;

  // --- one-sided writes (rdma::MonitorTap) ------------------------------------

  /// A replication write of `r` left for a follower: Inv 6 and 9.
  void on_replication_write(const SlotRecord& r);
  /// That write landed in `to`'s memory: Inv 13, then the landing counts as
  /// `to`'s acknowledgement, after Inv 1.
  void on_replication_landed(ProcessId to, const SlotRecord& r);

  // --- network tap (the message stack) --------------------------------------

  void on_send(Time now, ProcessId from, ProcessId to,
               const sim::AnyMessage& msg) override;

  // --- results ---------------------------------------------------------------

  const ViolationSink& violations() const { return sink_; }

  /// Assembles the TCS-LL checker input from the collected records.
  checker::TcsLLInput tcsll_input(const tcs::History& history,
                                  const tcs::ShardMap& shard_map,
                                  const tcs::Certifier& certifier) const;

 private:
  /// What a slot holds, as Invariants 1 and 2 compare it.
  struct SlotContent {
    bool filled = false;
    TxnId txn = 0;
    tcs::Decision vote = tcs::Decision::kAbort;
    tcs::Payload payload;
  };
  /// The leader's log as one or more PREPARE_ACKs saw it: slot k at index
  /// k - 1, a hole past the end.
  struct LeaderLog {
    std::vector<SlotContent> slots;
    /// Whether an acceptance points at this version: a rewrite below its
    /// end then goes to a copy.
    bool seen = false;
    /// The highest slot of a complete acceptance that saw this version:
    /// where Inv 2's prefix comparison stops.
    Slot complete_upto = kNoSlot;

    const SlotContent& at(Slot k) const;
  };
  /// One leader's log at one epoch of its shard, in versions (see the
  /// header comment); the last is current.
  struct Reference {
    std::deque<LeaderLog> versions = {LeaderLog{}};

    /// Records slot k's content after a write; no-op if it did not change.
    void write(Slot k, const LogEntry* e);
    /// Writes every slot of `log`, and holes past its end.
    void sync(const ReplicaLog& log);
  };
  using RefKey = std::tuple<ShardId, Epoch, ProcessId>;  // (shard, epoch, leader)

  struct Acceptance {
    ShardId shard = 0;
    Epoch epoch = kNoEpoch;
    Slot slot = kNoSlot;
    TxnId txn = 0;
    tcs::Payload payload;
    tcs::Decision vote = tcs::Decision::kAbort;
    /// The leader's log as of the PREPARE_ACK.
    LeaderLog* saw = nullptr;
    std::set<ProcessId> acks;
    bool complete = false;
  };
  /// Inv 1's mark for one follower against one version: the follower's
  /// slots 1..upto equal the version's, wherever both are filled.
  struct Verified {
    const LeaderLog* log = nullptr;
    Slot upto = kNoSlot;
  };
  struct VoteRecord {
    tcs::Decision vote = tcs::Decision::kAbort;
    tcs::Payload payload;
    std::vector<TxnId> committed_against;
    std::vector<TxnId> prepared_against;
  };

  using AcceptKey = std::tuple<ShardId, Epoch, Slot>;

  const ReplicaCore* replica_of(ProcessId pid) const;
  const configsvc::ShardConfig* config_of(ShardId shard, Epoch epoch) const;
  void register_config_locked(ShardId shard, const configsvc::ShardConfig& config);
  void register_new_config_locked(ProcessId leader, Epoch epoch,
                                  const std::vector<ProcessId>& members);
  /// The reference of `replica` at its current epoch, or null.
  Reference* reference_of(const ReplicaCore& replica);
  /// Opens the acceptance of `r` unless one is open, against the leader's
  /// log `saw`.
  void open_acceptance(const SlotRecord& r, LeaderLog& saw);
  /// Inv 6 and 9 over one replication record.
  void check_replication(const SlotRecord& r);
  /// The message stack's ACCEPT_ACK: Inv 3, then the shared ack.
  void observe_accept_ack(ProcessId from, const AcceptAck& aa);
  /// Counts `from`'s acknowledgement of the acceptance at `key` if it is of
  /// `txn`, after Inv 1.
  void record_ack(ProcessId from, const AcceptKey& key, TxnId txn);
  void check_decision(TxnId txn, tcs::Decision d);
  void maybe_complete(Acceptance& acc);
  /// Inv 1: `follower`'s slots up to the acceptance's equal the leader's
  /// log as of its PREPARE_ACK, past the pair's mark.
  void check_follower_prefix(const ReplicaCore& follower, const Acceptance& acc);
  /// Inv 2's prefix comparison of an installed log with one version of a
  /// lower-epoch reference.
  void check_prefix_at_install(const ReplicaCore& replica, const LeaderLog& saw,
                               Epoch ref_epoch);
  void report(const std::string& invariant, const std::string& details);

  rt::Runtime& rt_;
  /// Serializes all entry points (workers of a threaded runtime tap the
  /// monitor concurrently; on the sim this is uncontended).
  mutable std::mutex mu_;
  ViolationSink sink_;
  std::map<ProcessId, const ReplicaCore*> replicas_;
  std::map<ShardId, std::map<Epoch, configsvc::ShardConfig>> configs_;

  std::map<AcceptKey, Acceptance> acceptances_;
  /// Ordered by shard, then epoch, so an install finds the lower epochs.
  std::map<RefKey, Reference> references_;
  /// Inv 1 marks per follower, one per version it acknowledged against.
  std::map<ProcessId, std::vector<Verified>> verified_;
  /// Complete acceptances per shard, in completion order (Inv 2 and 5).
  std::map<ShardId, std::vector<const Acceptance*>> complete_by_shard_;
  /// First complete acceptance per (shard, txn) — the TCS-LL records; also
  /// backs the Inv 11 checks.
  std::map<std::pair<ShardId, TxnId>, AcceptKey> accepted_txn_;
  /// Complete acceptances per (shard, slot), for the Inv 11a cross-epoch check.
  std::map<std::pair<ShardId, Slot>, std::vector<AcceptKey>> complete_by_slot_;
  /// Vote computations keyed (shard, slot, txn) -> epoch -> record.
  std::map<std::tuple<ShardId, Slot, TxnId>, std::map<Epoch, VoteRecord>> votes_;

  // Inv 3: highest epoch each process acknowledged a PROBE for.
  std::map<ProcessId, Epoch> probe_acked_;
  // Inv 4a: decision per (shard, slot); Inv 4b: decision per txn.
  std::map<std::pair<ShardId, Slot>, tcs::Decision> slot_decision_;
  std::map<TxnId, tcs::Decision> decided_;
  // Inv 6/9: replication record consistency.
  std::map<AcceptKey, std::tuple<TxnId, tcs::Payload, tcs::Decision>> accept_sent_;
  std::map<std::tuple<ShardId, Epoch, TxnId>, Slot> accept_slot_;
  std::set<std::string> reported_;
};

}  // namespace ratc::commit
