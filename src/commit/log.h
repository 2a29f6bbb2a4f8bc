// The per-replica certification log: the paper's txn / payload / vote /
// dec / phase arrays (Fig. 1), stored as one slot-indexed array of entries.
// Slots are 1-based; followers may have holes (phase == kStart) because
// ACCEPT messages are sent by transaction coordinators, not the leader, and
// therefore arrive unordered (paper Sec. 3, Invariant 1 discussion).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"
#include "tcs/decision.h"
#include "tcs/payload.h"

namespace ratc::commit {

enum class Phase { kStart, kPrepared, kDecided };

/// Transaction metadata carried in PREPARE/ACCEPT so that any replica that
/// has the transaction prepared can act as a recovery coordinator
/// (`retry`, Fig. 1 line 70): the paper's shards(t) and client(t) functions
/// made concrete.
struct TxnMeta {
  TxnId txn = 0;
  std::vector<ShardId> participants;
  ProcessId client = kNoProcess;

  friend bool operator==(const TxnMeta&, const TxnMeta&) = default;
};

struct LogEntry {
  TxnId txn = 0;
  tcs::Payload payload;
  tcs::Decision vote = tcs::Decision::kAbort;
  tcs::Decision dec = tcs::Decision::kAbort;
  Phase phase = Phase::kStart;
  TxnMeta meta;
  /// Leader-stamped prepare time (CSN log): set when the leader appends the
  /// slot, carried to followers in ACCEPT, preserved by NEW_STATE.  The
  /// replica's read watermark sits below the smallest prepare_ts among
  /// prepared-undecided slots.
  Time prepare_ts = 0;
  /// csn(t).ts of the commit decision (0 until decided / for aborts); with
  /// `txn` this is the key the snapshot store files the writes under.
  Time csn_ts = 0;

  bool filled() const { return phase != Phase::kStart; }
};

class ReplicaLog {
 public:
  /// Entry at 1-based slot k, growing the log as needed.
  LogEntry& at(Slot k) {
    if (k > entries_.size()) entries_.resize(k);
    return entries_[k - 1];
  }

  const LogEntry* find(Slot k) const {
    if (k == kNoSlot || k > entries_.size()) return nullptr;
    return &entries_[k - 1];
  }

  /// The smallest prepare_ts among the kPrepared slots keyed in `slots`, or
  /// nullopt: a replica's read watermark sits just below it.  Exact when
  /// `slots` holds every prepared slot; replicas pass their retry
  /// bookkeeping (prepared_at_), so a read costs O(in-flight), not a scan.
  std::optional<Time> min_prepared_ts(const FlatMap<Slot, Time>& slots) const {
    std::optional<Time> min_ts;
    for (const auto& [k, since] : slots) {
      const LogEntry* e = find(k);
      if (e != nullptr && e->phase == Phase::kPrepared &&
          (!min_ts || e->prepare_ts < *min_ts)) {
        min_ts = e->prepare_ts;
      }
    }
    return min_ts;
  }

  /// The same minimum by a scan of the whole log: the oracle for tests and
  /// for the replicas' check_certifier_index cross-check.
  std::optional<Time> scan_min_prepared_ts() const {
    std::optional<Time> min_ts;
    for (const LogEntry& e : entries_) {
      if (e.phase == Phase::kPrepared && (!min_ts || e.prepare_ts < *min_ts)) {
        min_ts = e.prepare_ts;
      }
    }
    return min_ts;
  }

  /// max{k | phase[k] != start} (Fig. 1 line 59); 0 when empty.
  Slot max_filled() const {
    for (Slot k = entries_.size(); k >= 1; --k) {
      if (entries_[k - 1].filled()) return k;
    }
    return 0;
  }

  /// Slot holding transaction t, or kNoSlot (Fig. 1 line 6 "∃k. t = txn[k]").
  Slot slot_of(TxnId t) const {
    for (Slot k = 1; k <= entries_.size(); ++k) {
      if (entries_[k - 1].filled() && entries_[k - 1].txn == t) return k;
    }
    return kNoSlot;
  }

  Slot size() const { return entries_.size(); }

  /// Iteration support (slot k => index k-1).
  const std::vector<LogEntry>& entries() const { return entries_; }

  std::size_t wire_size() const {
    std::size_t total = 16;
    for (const auto& e : entries_) total += 32 + e.payload.wire_size();
    return total;
  }

 private:
  std::vector<LogEntry> entries_;
};

}  // namespace ratc::commit
