// Runtime invariant monitor for the atomic commit protocol.
//
// Implements the paper's Figure 3 and Figure 5 invariants as online checks
// over a simulated execution, plus the data collection needed to run the
// TCS-LL checker (Figure 6) afterwards:
//
//   Inv 1  : follower log prefix matches the leader snapshot taken when the
//            corresponding PREPARE_ACK was sent (checked at ACCEPT_ACK send).
//   Inv 2  : accepted slots persist into higher epochs (checked when a
//            process installs a new epoch via NEW_CONFIG/NEW_STATE).
//   Inv 3  : no ACCEPT_ACK for an epoch below an acknowledged PROBE.
//   Inv 4  : decision uniqueness per slot (4a) and per transaction (4b).
//   Inv 5  : a process skipped by an accepted epoch never rejoins later.
//   Inv 6/9: ACCEPT consistency per (epoch, slot) and per (epoch, txn).
//   Inv 11 : acceptance uniqueness across epochs.
//   Inv 12b: commit decisions only land on slots with commit votes.
//
// Violations are reported to a ViolationSink rather than asserted, so tests
// can also verify that deliberately broken variants DO violate them.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "checker/tcsll.h"
#include "commit/log.h"
#include "commit/messages.h"
#include "commit/replica_core.h"
#include "common/types.h"
#include "common/violation.h"
#include "configsvc/config.h"
#include "sim/network.h"

namespace ratc::commit {

class Replica;

/// Thread-safety: every entry point locks an internal mutex, so one Monitor
/// can observe a multithreaded rt::ThreadedRuntime run.  The process-state
/// reads (leader/follower logs, epochs) are always of the *acting* process —
/// the runtime fires on_send on the sender's worker and on_deliver on the
/// receiver's worker, and the replica hooks run on the replica's own worker
/// — so they need no further synchronization.  Accessors that return
/// references (violations(), decided()) are only safe after the runtime has
/// stopped (or on the single-threaded sim).
class Monitor : public sim::NetworkObserver, public CertificationObserver {
 public:
  explicit Monitor(rt::Runtime& rt) : rt_(rt) {}

  // --- wiring ---------------------------------------------------------------

  void register_replica(Replica* r);
  void register_config(ShardId shard, const configsvc::ShardConfig& config);

  // --- hooks invoked by Replica ----------------------------------------------

  void on_vote_computed(ShardId shard, Epoch epoch, Slot slot, TxnId txn,
                        tcs::Decision vote, const tcs::Payload& payload,
                        std::vector<TxnId> committed_against,
                        std::vector<TxnId> prepared_against) override;
  void on_epoch_installed(const ReplicaCore& replica) override;
  void on_local_decision(TxnId txn, tcs::Decision d) override;

  // --- network tap -----------------------------------------------------------

  void on_send(Time now, ProcessId from, ProcessId to,
               const sim::AnyMessage& msg) override;
  void on_deliver(Time now, ProcessId from, ProcessId to,
                  const sim::AnyMessage& msg) override;

  // --- results ---------------------------------------------------------------

  const ViolationSink& violations() const { return sink_; }
  ViolationSink& sink() { return sink_; }

  /// Decisions externalized in DECISION messages (input to TCS-LL's (10)).
  const std::map<TxnId, tcs::Decision>& decided() const { return decided_; }

  /// Assembles the TCS-LL checker input from the collected records.
  checker::TcsLLInput tcsll_input(const tcs::History& history,
                                  const tcs::ShardMap& shard_map,
                                  const tcs::Certifier& certifier) const;

 private:
  struct SnapshotEntry {
    bool filled = false;
    TxnId txn = 0;
    tcs::Decision vote = tcs::Decision::kAbort;
    tcs::Payload payload;
  };
  struct Acceptance {
    ShardId shard = 0;
    Epoch epoch = kNoEpoch;
    Slot slot = kNoSlot;
    TxnId txn = 0;
    tcs::Payload payload;
    tcs::Decision vote = tcs::Decision::kAbort;
    std::vector<SnapshotEntry> leader_prefix;  ///< slots 1..slot at PREPARE_ACK
    std::set<ProcessId> acks;
    bool complete = false;
  };
  struct VoteRecord {
    tcs::Decision vote = tcs::Decision::kAbort;
    tcs::Payload payload;
    std::vector<TxnId> committed_against;
    std::vector<TxnId> prepared_against;
  };

  using AcceptKey = std::tuple<ShardId, Epoch, Slot>;

  Replica* replica_of(ProcessId pid) const;
  ShardId shard_of(ProcessId pid) const;
  /// Scalar observation bodies, shared by the scalar and batched wire forms.
  void observe_prepare_ack(ProcessId from, const PrepareAck& pa);
  void observe_accept(const Accept& a);
  void observe_accept_ack(ProcessId from, const AcceptAck& aa);
  const configsvc::ShardConfig* config_of(ShardId shard, Epoch epoch) const;
  void register_config_locked(ShardId shard, const configsvc::ShardConfig& config);
  void maybe_complete(Acceptance& acc);
  void check_prefix_against_leader(const ReplicaCore& replica, const Acceptance& acc,
                                   const char* invariant);
  void report(const std::string& invariant, const std::string& details);

  rt::Runtime& rt_;
  /// Serializes all entry points (workers of a threaded runtime tap the
  /// monitor concurrently; on the sim this is uncontended).
  mutable std::mutex mu_;
  ViolationSink sink_;
  std::map<ProcessId, Replica*> replicas_;
  std::map<ShardId, std::map<Epoch, configsvc::ShardConfig>> configs_;

  std::map<AcceptKey, Acceptance> acceptances_;
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
  // Inv 6/9: ACCEPT consistency.
  std::map<AcceptKey, std::tuple<TxnId, tcs::Payload, tcs::Decision>> accept_sent_;
  std::map<std::tuple<ShardId, Epoch, TxnId>, Slot> accept_slot_;
  std::set<std::string> reported_;
};

}  // namespace ratc::commit
