// TCS histories (paper Sec. 2): sequences of certify(t, l) and decide(t, d)
// actions recorded at the client boundary, fed to the checkers — extended
// with snapshot-read records (read-only transactions served at a CSN
// snapshot with zero certification messages; checker/snapshot.h validates
// them against the committed writers).
//
// Storage: the event list holds every action, and each certify event holds
// its payload as a Shared handle, usually the very object the client
// certified (and a merged history shares it again).  Beside the list, one
// record per transaction (ordered by id, so the transaction lists come out
// ascending) holds what the queries need: the index of the first certify
// event, and the first decision with its time and the first commit csn.
// payload_of() points at the shared object, so it stays valid as long as
// the history does.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/shared.h"
#include "common/types.h"
#include "tcs/csn.h"
#include "tcs/decision.h"
#include "tcs/payload.h"

namespace ratc::tcs {

struct HistoryEvent {
  enum class Kind { kCertify, kDecide } kind = Kind::kCertify;
  Time time = 0;
  TxnId txn = 0;
  Shared<Payload> payload;      // for kCertify
  Decision decision = Decision::kAbort;  // for kDecide
};

/// One object observation of a snapshot read (version 0 = object absent at
/// the snapshot).
struct ReadObservation {
  ObjectId object = 0;
  Version version = 0;
  Value value = 0;
  friend bool operator==(const ReadObservation&, const ReadObservation&) = default;
};

/// One served read-only transaction: every observation was resolved at one
/// consistent snapshot, locally, on a replica whose watermark covered it.
struct SnapshotReadRecord {
  Time time = 0;                ///< when the read was served
  Csn snapshot;                 ///< the snapshot it executed at
  Duration staleness_bound = 0; ///< 0 = unbounded (client accepted any lag)
  std::vector<ReadObservation> observations;
};

class History {
 public:
  void record_certify(Time time, TxnId txn, Shared<Payload> payload);

  /// Records a decide action.  Duplicate decide events for the same
  /// transaction are recorded too (they occur only in the deliberately
  /// unsafe Figure 4a mode); `conflicting_decisions()` finds contradictory
  /// ones.  `csn` is the writer's commit sequence number when the decision
  /// is a commit and the stack carries one (ts 0 = unknown).
  void record_decide(Time time, TxnId txn, Decision d, Csn csn = {});

  /// Records a served read-only snapshot transaction.
  void record_snapshot_read(SnapshotReadRecord read);

  const std::vector<HistoryEvent>& events() const { return events_; }
  const std::vector<SnapshotReadRecord>& snapshot_reads() const {
    return snapshot_reads_;
  }

  bool certified(TxnId t) const;
  std::optional<Decision> decision_of(TxnId t) const;
  /// t's first certified payload, or null.
  const Payload* payload_of(TxnId t) const;

  /// Commit sequence number externalized with t's first commit decision
  /// (nullopt if t never committed or no csn was carried).
  std::optional<Csn> csn_of(TxnId t) const;
  /// Time of t's first decide event (nullopt if undecided).
  std::optional<Time> first_decide_time(TxnId t) const;

  /// Every certify has a matching decide (paper: "complete" history).
  bool complete() const;

  std::vector<TxnId> all_txns() const;
  std::vector<TxnId> committed_txns() const;
  std::size_t committed_count() const { return committed_txns().size(); }
  std::size_t aborted_count() const;

  /// Transactions for which two decide events with different decisions were
  /// externalized — a violation of the TCS spec (Invariant 4b at the client
  /// boundary).
  std::vector<TxnId> conflicting_decisions() const;

  std::string to_string() const;

 private:
  static constexpr std::size_t kNoEvent = static_cast<std::size_t>(-1);

  /// What the queries need of one transaction.
  struct TxnRecord {
    std::size_t certify_event = kNoEvent;  ///< index of the first certify
    std::optional<Decision> decision;       ///< the first decision
    Time decide_time = 0;                   ///< when it was recorded
    Csn csn;  ///< of the first commit decision carrying one (ts 0 = none)
  };

  const TxnRecord* txn_record(TxnId t) const;

  std::vector<HistoryEvent> events_;
  std::vector<SnapshotReadRecord> snapshot_reads_;
  std::map<TxnId, TxnRecord> txns_;
};

}  // namespace ratc::tcs
