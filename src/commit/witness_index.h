// Incremental witness index over a replica's certification log — the
// certification hot path's replacement for the flat L1/L2 scan.
//
// The vote of Fig. 1 line 12 is f_s(L1, l) ⊓ g_s(L2, l) where
//   L1 = payloads of decided-commit slots before the voting slot,
//   L2 = payloads of prepared slots with commit votes before it.
// Rescanning the whole log per vote makes certification O(n²) per run.
// Both shipped certifiers are *object-local*: a pairwise check can only
// abort through an object both payloads touch, and the committed-side check
// is monotone in the committed payload's commit version ("abort iff
// commit_version > some per-object threshold").  That licenses an index:
//
//   * object -> the committed writer with the highest commit version
//     (ties broken towards the later slot) — checking only these per object
//     of l decides f_s(L1, l) exactly;
//   * object -> prepared (commit-vote) slots, one multimap entry per object
//     of the slot's reads ∪ writes — the slots listed under l's objects are
//     exactly the prepared payloads whose pairwise g_s check can abort.
//
// The vote checks each candidate slot as it finds it: the fold is a meet, so
// neither the order of the checks nor a slot checked twice (through two
// shared objects) changes it.  The result is identical to the flat scan by
// construction (payloads skipped by the index return kCommit from the
// pairwise check); replicas can assert this per vote with
// Options::check_certifier_index, which keeps the flat path alive as a
// cross-check in sweeps.
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
#include <unordered_map>
#include <vector>

#include "commit/log.h"
#include "common/flat_map.h"
#include "tcs/certifier.h"

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
  struct CommittedWriter {
    Version version = 0;
    Slot slot = kNoSlot;
  };

  void index_committed_writer(Slot k, const tcs::Payload& p);

  /// Prepared slots with commit votes in order -> txn id (the monitor's
  /// P_s): only the slots in flight, appended by a leader in slot order.
  FlatMap<Slot, TxnId> prepared_;
  /// object -> committed writer with the highest commit version.
  std::unordered_map<ObjectId, CommittedWriter> committed_writer_;
  /// object -> prepared (commit-vote) slot, once per object the slot's
  /// payload reads or writes.
  std::unordered_multimap<ObjectId, Slot> prepared_by_object_;
  /// Bit k-1: slot k's commit is already counted and indexed.
  std::vector<bool> committed_seen_;
  std::size_t committed_count_ = 0;
};

}  // namespace ratc::commit
