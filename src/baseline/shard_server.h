// Baseline shard server: the TCS state machine replicated via Multi-Paxos,
// plus the 2PC coordinator role for transactions submitted to it.  Each
// server is one member of its shard's 2f+1 Paxos group and hosts that
// member's paxos::PaxosReplica, so one pid names the machine.
//
// Vote computation happens at *apply* time and depends only on the applied
// command prefix, so every replica of a shard computes identical votes —
// the standard state-machine-replication discipline.  Only the replica
// that currently leads its Paxos group emits the Vote/decision messages.
// The vote is Fig. 1's f_s(L1, l) ⊓ g_s(L2, l) over the applied prefix
// (L1: committed transactions, L2: prepared-undecided ones with commit
// votes), computed through the object index the replica stacks share
// (tcs::ObjectIndex, keyed by transaction): O(objects of the payload) per
// prepare, not a walk of every transaction applied.  The flat fold over
// txns_ survives only as Options::check_certifier_index's oracle.
//
// Options::termination picks what follows a coordinator crash
// (baseline/termination.h).  Under kCooperative the classic 2PC fix is bolted
// on: every replica tracks its in-doubt transactions (prepared, undecided,
// remote coordinator), watches their coordinators through an
// fd::PingMonitor, and — on suspicion or after an in-doubt timeout — the
// shard's current leader broadcasts TerminationQuery to the peer shards and
// resolves from their answers.  Peers answer durable facts only: a
// never-prepared peer first tombstones the transaction as aborted through
// its own Paxos log (CmdResolveAbort), letting the log order arbitrate
// races with an in-flight prepare.  Rounds are bounded, so a run always
// quiesces; all-prepared transactions remain blocked — the irreducible 2PC
// window the paper's protocols remove.
//
// kPaxosCommit (Gray & Lamport) runs the same machinery, read differently:
// the shard's log doubles as the acceptor set of its vote instances — the
// vote for t is fixed by the FIRST vote-determining entry for t, a
// CmdPrepare or a CmdResolveAbort tombstone — so an all-prepared answer set
// resolves to COMMIT.  The coordinator also answers the client as soon as
// every vote is chosen, submitting its own CmdDecide in parallel: one
// replicated round less on the critical path than the other modes, which
// reply only once CmdDecide has applied in the coordinator's shard.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "baseline/messages.h"
#include "baseline/termination.h"
#include "commit/messages.h"
#include "fd/failure_detector.h"
#include "paxos/replica.h"
#include "sim/process.h"
#include "store/versioned_store.h"
#include "tcs/certifier.h"
#include "tcs/csn.h"
#include "tcs/object_index.h"
#include "tcs/shard_map.h"

namespace ratc::baseline {

class ShardServer : public sim::Process {
 public:
  struct Options {
    ShardId shard = 0;
    const tcs::ShardMap* shard_map = nullptr;
    const tcs::Certifier* certifier = nullptr;
    /// What follows a coordinator crash (kClassical = blocking 2PC).
    TerminationMode termination = TerminationMode::kClassical;
    fd::PingMonitor::Options fd;
    /// This shard's Paxos group: every server's pid, this one's included.
    paxos::PaxosReplica::Options paxos;
    /// Debug cross-check: recompute every vote with the flat fold over the
    /// applied prefix and abort on divergence from the indexed vote.
    bool check_certifier_index = false;
  };

  /// In-doubt fallback: query peers this long after preparing even if the
  /// failure detector never fires (covers a live coordinator whose decision
  /// message was lost).
  static constexpr Duration kInDoubtTimeout = 300;
  /// Delay between termination query rounds.
  static constexpr Duration kTerminationRetryEvery = 160;
  /// Query rounds before giving up (counted as blocked).
  static constexpr int kTerminationMaxRounds = 5;

  ShardServer(rt::Runtime& rt, ProcessId id, Options options);

  paxos::PaxosReplica& paxos() { return paxos_; }

  /// Routing table: leader server of each shard (maintained by the cluster;
  /// static absent failures, updated on failover by the harness).
  void set_shard_leader(ShardId s, ProcessId leader) { leaders_[s] = leader; }
  ProcessId shard_leader(ShardId s) const { return leaders_.at(s); }

  void on_message(ProcessId from, const sim::AnyMessage& msg) override;

  /// Paxos apply upcall.
  void apply(Slot slot, const sim::AnyMessage& cmd);

  // Introspection for tests and the cluster-level verifier.
  bool has_prepared(TxnId t) const;
  bool has_decided(TxnId t) const;
  tcs::Decision decision_of(TxnId t) const { return txns_.at(t).decision; }
  /// This shard's vote for prepared t.
  tcs::Decision vote_of(TxnId t) const { return txns_.at(t).vote; }
  /// Every transaction this replica applied a decision for.
  std::map<TxnId, tcs::Decision> decided_txns() const {
    std::map<TxnId, tcs::Decision> out;
    for (const auto& [t, st] : txns_) {
      if (st.decided) out.emplace(t, st.decision);
    }
    return out;
  }
  const TerminationStats& termination_stats() const { return term_stats_; }

  // --- CSN reads (baseline) ----------------------------------------------------
  //
  // The baseline has no all-follower-ack rule, so only a Paxos leader that
  // has applied every chosen command may serve reads: its applied prefix
  // then contains every prepare whose transaction could commit with a csn
  // at or below the watermark (a commit needs this shard's vote, which the
  // leader only emits at prepare-apply time — any later decide is
  // externalized after the read and is exempt from mandatory visibility).

  /// Leader-gated read eligibility.
  bool can_serve_reads() const { return paxos_.is_leader() && paxos_.caught_up(); }
  /// Largest snapshot this replica can serve locally: below the smallest
  /// coordinator stamp among prepared-undecided transactions, else "now".
  tcs::Csn read_watermark() const;
  const store::SnapshotStore& snapshot_store() const { return store_; }

 private:
  struct TxnState {
    tcs::Payload payload;
    tcs::Decision vote = tcs::Decision::kAbort;
    bool prepared = false;
    bool decided = false;
    tcs::Decision decision = tcs::Decision::kAbort;
    // 2PC metadata replicated with the prepare; lets any replica of any
    // participant shard run termination after the coordinator died.
    std::vector<ShardId> participants;
    ProcessId client = kNoProcess;
    ProcessId coordinator = kNoProcess;
    Time prepare_ts = 0;  ///< coordinator CSN stamp; a commit's csn(t).ts
  };
  struct CoordState {
    std::vector<ShardId> participants;
    ProcessId client = kNoProcess;
    Time prepare_ts = 0;  ///< the stamp this coordinator issued for t
    std::map<ShardId, tcs::Decision> votes;
    bool decision_submitted = false;
    bool replied = false;  ///< client answered, peers told (kPaxosCommit: early)
  };
  /// Per-transaction termination progress (querier side).
  /// Followers re-arm the retry timer without consuming the query budget —
  /// a replica elected leader mid-protocol still gets its full
  /// kTerminationMaxRounds of queries; `rounds` (total fires, leader or
  /// not) is capped separately so the retry chain always terminates and
  /// the simulation quiesces.
  struct TermState {
    int rounds = 0;         ///< total retry fires (hard-capped)
    int leader_rounds = 0;  ///< query rounds actually broadcast as leader
    bool concluded = false;       ///< resolved, or given up (blocked)
    bool timer_armed = false;     ///< in-doubt fallback timer scheduled
    std::map<ShardId, PeerTxnState> answers;
  };

  /// Coordinates a CERTIFY (one item) or CERTIFY_BATCH round: each item is
  /// an independent 2PC instance; the batch only coalesces the per-shard
  /// replicate-and-prepare traffic.
  void handle_certify(ProcessId from, std::span<const commit::CertifyRequest> items);
  void handle_submit_prepare(const SubmitPrepare& m);
  /// Replicates the whole batch through ONE Paxos append (CmdPrepareBatch).
  void handle_submit_prepare_batch(const SubmitPrepareBatch& m);
  void handle_vote(const Vote& m);
  void handle_submit_decide(const SubmitDecide& m);
  void apply_prepare(const CmdPrepare& c);
  /// The oracle: certifier->vote folded over every committed and every
  /// other prepared commit-vote payload of txns_.
  tcs::Decision flat_vote(TxnId t, const tcs::Payload& l) const;
  void apply_decide(const CmdDecide& c);
  void apply_resolve_abort(const CmdResolveAbort& c);
  void maybe_decide(TxnId t);

  // --- termination (kCooperative, kPaxosCommit) ---------------------------------
  void handle_termination_query(ProcessId from, const TerminationQuery& q);
  void handle_termination_answer(const TerminationAnswer& a);
  /// Marks t in doubt (prepared, undecided, coordinator elsewhere): watch
  /// the coordinator and arm the in-doubt fallback timer.
  void note_in_doubt(TxnId t, ProcessId coordinator);
  void clear_in_doubt(TxnId t, ProcessId coordinator);
  void on_coordinator_suspected(ProcessId coordinator);
  /// One query round: leaders broadcast, everyone re-arms the retry timer;
  /// bounded by kTerminationMaxRounds.
  void start_termination_round(TxnId t);
  /// Answers `to` with the durable state of t (which must exist).
  void send_termination_answer(ProcessId to, TxnId t);
  /// Runs the inference rules over the answers collected so far.
  void maybe_conclude_termination(TxnId t);
  /// Externalizes a durable decision (under kPaxosCommit, one fixed by the
  /// chosen votes): answers the client (if known) and sends SubmitDecide to
  /// every participant shard but our own.  `csn_ts` is the coordinator
  /// stamp for commits (0 for aborts).
  void announce_decision(TxnId t, tcs::Decision d,
                         const std::vector<ShardId>& participants,
                         ProcessId client, Time csn_ts);
  /// Adopts d for the in-doubt transaction t: replicate locally, propagate
  /// to the peer shards, and answer the stranded client.
  void resolve_in_doubt(TxnId t, tcs::Decision d);

  Options options_;
  paxos::PaxosReplica paxos_;  ///< after options_: built from options_.paxos
  std::map<ShardId, ProcessId> leaders_;

  // Replicated TCS state (per shard).
  std::map<TxnId, TxnState> txns_;
  /// (prepare_ts, txn) of every prepared-undecided entry of txns_, kept by
  /// apply_prepare and apply_decide: the read watermark's index.
  tcs::PreparedStamps prepared_stamps_;
  /// L1 and L2 of the vote, indexed by object; kept by apply_prepare and
  /// apply_decide.  It holds transaction ids and reaches payloads through
  /// txns_ at vote time, so no pointer into txns_ is kept.
  tcs::ObjectIndex<TxnId> index_;
  /// Multi-version committed state for snapshot reads, fed by apply_decide;
  /// deterministic across replicas (csn = the replicated coordinator stamp).
  store::SnapshotStore store_;

  // Coordinator-side state (not replicated; dies with the coordinator, as
  // in classical 2PC — the baseline's blocking weakness, which the
  // termination modes repair from the replicated state).
  std::map<TxnId, CoordState> coord_;

  // Termination state (per replica; only leaders speak).
  fd::Responder responder_;
  std::unique_ptr<fd::PingMonitor> fd_monitor_;
  std::map<TxnId, TermState> term_;
  std::map<ProcessId, std::set<TxnId>> in_doubt_;  ///< by coordinator
  TerminationStats term_stats_;
};

}  // namespace ratc::baseline
