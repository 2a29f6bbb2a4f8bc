// Client process: submits transactions for certification and records the
// TCS history (certify/decide actions) that the checkers consume.  All
// three stacks use it: a co-located coordinator is any commit::ReplicaCore
// (the message-passing or the RDMA replica), and the 2PC baseline's shard
// servers take its remote CERTIFY / CERTIFY_BATCH and answer with
// DECISION_CLIENT.
//
// Two modes, matching the paper's latency discussion (Sec. 3):
//  * remote: certify is a message to the coordinator replica, and the
//    decision comes back in a DECISION message (5 message delays after the
//    coordinator starts; the baseline's only mode);
//  * co-located: the client shares a machine with its coordinator; certify
//    and the decision callback are local (4 message delays total).
//
// Each transaction's payload becomes one Shared handle, which the history
// and the CERTIFY (or the co-located coordinator) both hold.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "commit/messages.h"
#include "commit/replica_core.h"
#include "common/shared.h"
#include "sim/process.h"
#include "tcs/history.h"

namespace ratc::commit {

class Client : public sim::Process {
 public:
  Client(rt::Runtime& rt, ProcessId id, tcs::History* history)
      : Process(rt, id, "client" + std::to_string(id)), history_(history) {}

  /// Submits via messages to the replica with the given process id.
  void certify_remote(ProcessId coordinator, TxnId txn, Shared<tcs::Payload> payload) {
    note_certify(txn, payload);
    rt().send_msg(id(), coordinator, CertifyRequest{txn, std::move(payload)});
  }

  /// Submits a whole batch via one CERTIFY_BATCH message to a remote
  /// coordinator (a batch of one falls back to the scalar CERTIFY).
  void certify_batch_remote(ProcessId coordinator,
                            const std::vector<std::pair<TxnId, tcs::Payload>>& batch) {
    CertifyBatchRequest req;
    req.items.reserve(batch.size());
    for (const auto& [txn, payload] : batch) {
      Shared<tcs::Payload> shared = payload;
      note_certify(txn, shared);
      req.items.push_back(CertifyRequest{txn, std::move(shared)});
    }
    if (req.items.size() == 1) {
      rt().send_msg(id(), coordinator, std::move(req.items.front()));
    } else {
      rt().send_msg(id(), coordinator, std::move(req));
    }
  }

  /// Submits through a co-located coordinator replica (no network hop).
  /// Passing our id as the origin lets a successor coordinator deliver the
  /// decision as DECISION_CLIENT if the co-located replica crashes mid-2PC.
  void certify_colocated(ReplicaCore& coordinator, TxnId txn, Shared<tcs::Payload> payload) {
    note_certify(txn, payload);
    coordinator.certify_local(
        txn, std::move(payload),
        [this, txn](tcs::Decision d, Time csn_ts) { record_decision(txn, d, csn_ts); },
        id());
  }

  /// Submits a whole batch through one co-located coordinator (one
  /// PREPARE_BATCH per shard leader instead of one PREPARE per txn each).
  void certify_batch_colocated(
      ReplicaCore& coordinator,
      const std::vector<std::pair<TxnId, tcs::Payload>>& batch) {
    std::vector<std::pair<TxnId, Shared<tcs::Payload>>> shared;
    shared.reserve(batch.size());
    for (const auto& [txn, payload] : batch) {
      shared.emplace_back(txn, payload);
      note_certify(txn, shared.back().second);
    }
    coordinator.certify_batch_local(
        shared,
        [this](TxnId txn, tcs::Decision d, Time csn_ts) {
          record_decision(txn, d, csn_ts);
        },
        id());
  }

  void on_message(ProcessId from, const sim::AnyMessage& msg) override {
    (void)from;
    if (const auto* d = msg.as<ClientDecision>()) {
      record_decision(d->txn, d->decision, d->csn_ts);
    }
  }

  bool decided(TxnId txn) const { return decision(txn).has_value(); }
  std::optional<tcs::Decision> decision(TxnId txn) const {
    auto it = txns_.find(txn);
    if (it == txns_.end()) return std::nullopt;
    return it->second.decision;
  }
  std::size_t decided_count() const { return decided_count_; }

  /// certify-to-decide latency in ticks (= message delays in unit-delay
  /// mode), for the latency experiments.
  std::optional<Duration> latency(TxnId txn) const {
    auto it = txns_.find(txn);
    if (it == txns_.end() || !it->second.sent || !it->second.decision) return std::nullopt;
    return it->second.decided_at - *it->second.sent;
  }

  /// Invoked once per transaction, on its first decision (used by workload
  /// drivers to pipeline).
  std::function<void(TxnId, tcs::Decision)> on_decision;

 private:
  void record_decision(TxnId txn, tcs::Decision d, Time csn_ts = 0) {
    // Record duplicates too: conflicting ones are a spec violation that the
    // history checker must be able to see.
    Time now = rt().now();
    history_->record_decide(now, txn, d, tcs::Csn{csn_ts, txn});
    TxnRecord& rec = txns_[txn];
    if (!rec.decision) {
      rec.decision = d;
      rec.decided_at = now;
      ++decided_count_;
      if (on_decision) on_decision(txn, d);
    }
  }

  void note_certify(TxnId txn, const Shared<tcs::Payload>& payload) {
    Time now = rt().now();
    history_->record_certify(now, txn, payload);
    txns_[txn].sent = now;
  }

  /// What the queries need of one transaction; looked up, never listed.
  struct TxnRecord {
    std::optional<Time> sent;               ///< the last certify
    std::optional<tcs::Decision> decision;  ///< the first decision
    Time decided_at = 0;                    ///< when it arrived
  };

  tcs::History* history_;
  std::unordered_map<TxnId, TxnRecord> txns_;
  std::size_t decided_count_ = 0;
};

}  // namespace ratc::commit
