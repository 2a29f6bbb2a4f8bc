// Multi-decree Paxos replicated state machine over a static group of 2f+1
// replicas.
//
// This is the substrate the paper's introduction contrasts against: the
// "vanilla" way to make a shard fault-tolerant.  It backs two users here:
//  * the Paxos-replicated configuration service (paper Sec. 2: "this
//    service may be implemented using Paxos-like replication over 2f+1
//    processes"), and
//  * the baseline TCS that runs 2PC over Paxos-replicated shards
//    (experiments E2-E4).
//
// A PaxosReplica is a component of the process that hosts it, like
// fd::Responder or configsvc::CsClient: it sends under the host's pid, the
// host passes it every incoming message first, and each group member is one
// process.  The replica arms no timers; a host that needs one (a
// retransmission or an election timeout) owns it.
//
// Design notes:
//  * Each member plays proposer, acceptor and learner.
//  * Stable-leader optimization: phase 1 runs once per ballot and covers
//    all slots; subsequent commands go straight to phase 2.
//  * A new leader re-proposes the highest-ballot accepted value per slot
//    and fills gaps with no-ops.  Every slot up to its applied prefix is
//    already chosen at the candidate, so phase 1 ships and re-proposes only
//    the slots above it.
//  * Chosen commands are applied in slot order through the ApplyFn; no-ops
//    are skipped.  All replicas apply the same sequence (tested).
//  * Log compaction is out of scope (chosen_ and accepted_ keep every
//    slot); runs are bounded, so this only costs memory.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/types.h"
#include "paxos/messages.h"
#include "rt/runtime.h"
#include "sim/message.h"

namespace ratc::paxos {

class PaxosReplica {
 public:
  /// Applied exactly once per chosen non-noop command, in slot order.
  using ApplyFn = std::function<void(Slot, const sim::AnyMessage&)>;

  struct Options {
    std::vector<ProcessId> group;  ///< every member's host pid, the owner's included
    ProcessId initial_leader = kNoProcess;
  };

  /// `owner` is the hosting process: the replica sends under its pid, and
  /// its ballots carry it.  `apply` may capture the host: the constructor
  /// never calls it.
  PaxosReplica(rt::Runtime& rt, ProcessId owner, Options options, ApplyFn apply);

  /// Submits a command for replication.  On the leader this starts phase 2
  /// immediately; elsewhere it forwards to the believed leader.
  void submit(sim::AnyMessage cmd);

  /// Starts a new election with a ballot higher than any seen.
  void start_election();

  bool is_leader() const { return leading_; }
  /// No election in progress and every chosen slot applied.  A freshly
  /// elected leader that has not yet applied its predecessors' chosen
  /// commands must not serve reads off the applied state (baseline CSN
  /// snapshot reads gate on this).
  bool caught_up() const {
    return !electing_ &&
           (chosen_.empty() || chosen_.rbegin()->first == applied_upto_);
  }
  ProcessId leader_hint() const { return leader_hint_; }
  Slot last_applied() const { return applied_upto_; }
  Slot next_slot() const { return next_slot_; }
  const Options& options() const { return options_; }

  /// The host passes every incoming message here first; returns true if it
  /// was a Paxos message and has been consumed.
  bool on_message(ProcessId from, const sim::AnyMessage& msg);

 private:
  std::size_t majority() const { return options_.group.size() / 2 + 1; }

  void handle_submit(const SubmitCmd& m);
  void handle_phase1a(ProcessId from, const Phase1a& m);
  /// The accepted_ entries above slot `prefix`: what a phase-1 response
  /// reports to a candidate that has applied up to `prefix`.
  std::map<Slot, AcceptedEntry> accepted_above(Slot prefix) const;
  void handle_phase1b(ProcessId from, const Phase1b& m);
  void check_election();
  void handle_phase2a(ProcessId from, const Phase2a& m);
  void handle_phase2b(ProcessId from, const Phase2b& m);
  void handle_commit(ProcessId from, const CommitSlot& m);

  void propose(Slot slot, sim::AnyMessage cmd);
  void choose(Slot slot, const sim::AnyMessage& cmd);
  void apply_ready();
  /// Forwards buffered commands once a leader becomes known.
  void drain_backlog();

  rt::Runtime& rt_;
  ProcessId owner_;
  Options options_;
  ApplyFn apply_;

  // Acceptor state.
  Ballot promised_;
  std::map<Slot, AcceptedEntry> accepted_;

  // Learner state.
  std::map<Slot, sim::AnyMessage> chosen_;
  Slot applied_upto_ = 0;

  // Proposer state.
  bool leading_ = false;
  Ballot my_ballot_;
  ProcessId leader_hint_ = kNoProcess;
  Slot next_slot_ = 1;
  // Election in progress: responders and their accepted maps.
  bool electing_ = false;
  std::map<ProcessId, std::map<Slot, AcceptedEntry>> phase1_responses_;
  // Outstanding phase-2 quorums per slot.
  struct Pending {
    sim::AnyMessage cmd;
    std::set<ProcessId> acks;
  };
  std::map<Slot, Pending> pending_;
  // Commands submitted while an election is in progress.
  std::vector<sim::AnyMessage> backlog_;
};

}  // namespace ratc::paxos
