// Incremental witness index over a replica's certification log — the
// certification hot path's replacement for the flat L1/L2 scan.
//
// The vote of Fig. 1 line 12 is f_s(L1, l) ⊓ g_s(L2, l) where
//   L1 = payloads of decided-commit slots before the voting slot,
//   L2 = payloads of prepared slots with commit votes before it.
// Rescanning the whole log per vote makes certification O(n²) per run.
// The object-indexed vote is tcs::ObjectIndex (tcs/object_index.h), shared
// with the 2PC baseline; this class keys it by log slot, reads payloads out
// of the log, and keeps what only the replicas need: which slots are
// indexed (a re-sent DECISION must not count twice) and the slot-ordered
// witness sets.  The vote is identical to the flat scan by construction;
// replicas can assert this per vote with Options::check_certifier_index,
// which keeps the flat path alive as a cross-check in sweeps.
//
// collect() reports the slot-ordered witness sets the monitor needs
// (constraint (10) of Fig. 6 pins T_s exactly): P_s from the sorted
// prepared slots below, T_s read off the log itself, which already holds
// every decided slot — only the monitor and the cross-check call it.
//
// Maintenance contract (the embedding replica calls these):
//   * on_prepared(log, k)  — after slot k enters phase kPrepared with its
//     vote assigned (leader append, follower ACCEPT, one-sided RAccept);
//   * on_decided(log, k)   — after slot k enters phase kDecided (again, for
//     a re-sent DECISION: the call is idempotent);
//   * rebuild(log)         — after wholesale log replacement (NEW_STATE) or
//     leadership takeover (the log may hold entries this process never saw
//     individually).
// All structures reference log slots, never payload pointers: ReplicaLog
// grows by vector resize, so pointers into it are unstable.
#pragma once

#include <cstddef>
#include <vector>

#include "commit/log.h"
#include "common/flat_map.h"
#include "tcs/object_index.h"

namespace ratc::commit {

class WitnessIndex {
 public:
  /// The L1/L2 sets (and their transaction ids) for a vote at the top of
  /// the log, in slot order — what the flat scan used to produce.
  struct Witnesses {
    std::vector<const tcs::Payload*> l1, l2;
    std::vector<TxnId> committed, prepared;
  };

  void clear();

  /// Reindexes from scratch; the only path that scans the log.
  void rebuild(const ReplicaLog& log);

  /// Slot k is now prepared (vote and payload final for its prepared life).
  void on_prepared(const ReplicaLog& log, Slot k);

  /// Slot k is now decided (commit moves it to the committed side, abort
  /// drops it).
  void on_decided(const ReplicaLog& log, Slot k);

  /// f_s(L1, l) ⊓ g_s(L2, l) touching only payloads that share an object
  /// with l.  Exactly equal to certifier.vote over collect(log, slot) for
  /// any slot above every indexed slot (the leader always votes on the
  /// freshly appended top slot).
  tcs::Decision vote(const tcs::Certifier& certifier, const ReplicaLog& log,
                     const tcs::Payload& l) const;

  /// Full witness sets for slot `slot` (entries at slots < slot), in slot
  /// order; feeds the monitor's on_vote_computed.
  Witnesses collect(const ReplicaLog& log, Slot slot) const;

  /// Decided-commit slots indexed so far, each counted once.
  std::size_t committed_size() const { return committed_count_; }
  std::size_t prepared_size() const { return prepared_.size(); }

 private:
  /// The indexed L1 (decided-commit slots) and L2 (prepared_ below).
  tcs::ObjectIndex<Slot> objects_;
  /// Prepared slots with commit votes in order -> txn id (the monitor's
  /// P_s): only the slots in flight, appended by a leader in slot order.
  FlatMap<Slot, TxnId> prepared_;
  /// Bit k-1: slot k's commit is already counted and indexed.
  std::vector<bool> committed_seen_;
  std::size_t committed_count_ = 0;
};

}  // namespace ratc::commit
