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
// The certification path — certify, the leader's prepare and vote, the
// coordinator's decision rule, the follower fill and decision apply, the
// retry timer and the CSN read surface — and Fig. 1's reconfiguration — the
// per-shard views, PROBE, NEW_CONFIG, NEW_STATE, CONFIG_CHANGE and the
// configuration-service hooks — live in commit::ReplicaCore, shared with
// the RDMA replica.  This substrate keeps what is specific to message
// passing: the bootstrap of its views, and the ACCEPT/ACCEPT_ACK/DECISION
// messages with the follower-side epoch guard of line 22 (plus the E14
// leader-driven replication ablation).
//
// Code comments cite figure line numbers.  Where the code departs from the
// pseudocode it says why: messages carry participant lists (so any replica
// holding a prepared slot can recover it), and the non-deterministic
// probing rule runs on a timer.
#pragma once

#include <map>
#include <span>
#include <vector>

#include "commit/replica_core.h"

namespace ratc::commit {

class Monitor;

class Replica : public ReplicaCore {
 public:
  struct Options : ReplicaCore::Options {
    /// ABLATION (experiment E14): the leader ships ACCEPTs to its followers
    /// directly instead of delegating to the coordinator.  One message
    /// delay faster, but concentrates the replication fan-out on the
    /// leader — the design trade-off Sec. 3 discusses.
    bool leader_ships_accepts = false;
    Monitor* monitor = nullptr;
  };

  Replica(rt::Runtime& rt, ProcessId id, Options options);

  // --- bootstrap ------------------------------------------------------------

  /// Installs the pre-activated initial configuration (all shards' views).
  void bootstrap(Status status,
                 const std::map<ShardId, configsvc::ShardConfig>& all_views);

  /// Initializes a fresh spare: knows the views but holds no shard state.
  void bootstrap_spare(const std::map<ShardId, configsvc::ShardConfig>& all_views);

  void on_message(ProcessId from, const sim::AnyMessage& msg) override;

 private:
  // Certification hooks: ACCEPT and DECISION as messages.
  void replicate(ProcessId follower, std::span<const PrepareAck* const> acks) override;
  void ship_decision(ShardId s, const ShardProgress& pr, TxnId txn,
                     tcs::Decision decision, Time csn_ts) override;
  void reply_prepare_ack(ProcessId coordinator, PrepareAck ack) override;
  void reply_prepare_ack_batch(ProcessId coordinator, PrepareAckBatch acks) override;

  // Fig. 1 follower and coordinator handlers.
  void handle_accept(ProcessId from, const Accept& m);              // line 21
  void handle_accept_ack(ProcessId from, const AcceptAck& m);       // line 26
  void handle_decision(const DecisionMsg& m);                       // line 30
  // Batched variants: apply the items in order through the scalar logic,
  // then coalesce the outbound messages (one ack batch per destination).
  void handle_accept_batch(ProcessId from, const AcceptBatch& m);
  void handle_accept_ack_batch(ProcessId from, const AcceptAckBatch& m);

  /// Lines 22-25 without the send: applies the ACCEPT and fills *ack plus
  /// the coordinator it must go to.  Returns false if the line-22 guard
  /// rejects it.
  bool apply_accept(ProcessId from, const Accept& m, AcceptAck* ack,
                    ProcessId* coordinator);

  const bool leader_ships_accepts_;
};

}  // namespace ratc::commit
