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
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "commit/messages.h"
#include "commit/replica_core.h"
#include "sim/process.h"
#include "tcs/history.h"

namespace ratc::commit {

class Client : public sim::Process {
 public:
  Client(rt::Runtime& rt, ProcessId id, tcs::History* history)
      : Process(rt, id, "client" + std::to_string(id)), history_(history) {}

  /// Submits via messages to the replica with the given process id.
  void certify_remote(ProcessId coordinator, TxnId txn, const tcs::Payload& payload) {
    history_->record_certify(rt().now(), txn, payload);
    sent_[txn] = rt().now();
    rt().send_msg(id(), coordinator, CertifyRequest{txn, payload});
  }

  /// Submits a whole batch via one CERTIFY_BATCH message to a remote
  /// coordinator (a batch of one falls back to the scalar CERTIFY).
  void certify_batch_remote(ProcessId coordinator,
                            const std::vector<std::pair<TxnId, tcs::Payload>>& batch) {
    CertifyBatchRequest req;
    for (const auto& [txn, payload] : batch) {
      history_->record_certify(rt().now(), txn, payload);
      sent_[txn] = rt().now();
      req.items.push_back(CertifyRequest{txn, payload});
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
  void certify_colocated(ReplicaCore& coordinator, TxnId txn, const tcs::Payload& payload) {
    history_->record_certify(rt().now(), txn, payload);
    sent_[txn] = rt().now();
    coordinator.certify_local(
        txn, payload,
        [this, txn](tcs::Decision d, Time csn_ts) { record_decision(txn, d, csn_ts); },
        id());
  }

  /// Submits a whole batch through one co-located coordinator (one
  /// PREPARE_BATCH per shard leader instead of one PREPARE per txn each).
  void certify_batch_colocated(
      ReplicaCore& coordinator,
      const std::vector<std::pair<TxnId, tcs::Payload>>& batch) {
    for (const auto& [txn, payload] : batch) {
      history_->record_certify(rt().now(), txn, payload);
      sent_[txn] = rt().now();
    }
    coordinator.certify_batch_local(
        batch,
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

  bool decided(TxnId txn) const { return decisions_.count(txn) > 0; }
  std::optional<tcs::Decision> decision(TxnId txn) const {
    auto it = decisions_.find(txn);
    if (it == decisions_.end()) return std::nullopt;
    return it->second;
  }
  std::size_t decided_count() const { return decisions_.size(); }

  /// certify-to-decide latency in ticks (= message delays in unit-delay
  /// mode), for the latency experiments.
  std::optional<Duration> latency(TxnId txn) const {
    auto d = decided_at_.find(txn);
    auto s = sent_.find(txn);
    if (d == decided_at_.end() || s == sent_.end()) return std::nullopt;
    return d->second - s->second;
  }

  /// Invoked once per transaction, on its first decision (used by workload
  /// drivers to pipeline).
  std::function<void(TxnId, tcs::Decision)> on_decision;

 private:
  void record_decision(TxnId txn, tcs::Decision d, Time csn_ts = 0) {
    // Record duplicates too: conflicting ones are a spec violation that the
    // history checker must be able to see.
    history_->record_decide(rt().now(), txn, d, tcs::Csn{csn_ts, txn});
    if (decisions_.count(txn) == 0) {
      decisions_[txn] = d;
      decided_at_[txn] = rt().now();
      if (on_decision) on_decision(txn, d);
    }
  }

  tcs::History* history_;
  std::map<TxnId, tcs::Decision> decisions_;
  std::map<TxnId, Time> sent_;
  std::map<TxnId, Time> decided_at_;
};

}  // namespace ratc::commit
