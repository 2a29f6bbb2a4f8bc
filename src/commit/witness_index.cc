#include "commit/witness_index.h"

namespace ratc::commit {

using tcs::Decision;

void WitnessIndex::clear() {
  objects_.clear();
  prepared_.clear();
  committed_seen_.clear();
  committed_count_ = 0;
}

void WitnessIndex::rebuild(const ReplicaLog& log) {
  clear();
  for (Slot k = 1; k <= log.size(); ++k) {
    const LogEntry* e = log.find(k);
    if (e == nullptr || !e->filled()) continue;
    if (e->phase == Phase::kPrepared) {
      on_prepared(log, k);
    } else {
      on_decided(log, k);
    }
  }
}

void WitnessIndex::on_prepared(const ReplicaLog& log, Slot k) {
  const LogEntry* e = log.find(k);
  if (e == nullptr || e->phase != Phase::kPrepared) return;
  if (e->vote != Decision::kCommit) return;  // only commit votes enter L2
  if (!prepared_.emplace(k, e->txn)) return;  // duplicate notification
  objects_.add_prepared(k, e->payload);
}

void WitnessIndex::on_decided(const ReplicaLog& log, Slot k) {
  const LogEntry* e = log.find(k);
  if (e == nullptr || e->phase != Phase::kDecided) return;
  // Leave L2 regardless of the outcome.
  if (prepared_.erase(k)) objects_.remove_prepared(k, e->payload);
  if (e->dec != Decision::kCommit) return;
  if (committed_seen_.size() < k) committed_seen_.resize(k);
  if (committed_seen_[k - 1]) return;  // duplicate notification
  committed_seen_[k - 1] = true;
  ++committed_count_;
  objects_.add_committed(k, e->payload);
}

tcs::Decision WitnessIndex::vote(const tcs::Certifier& certifier, const ReplicaLog& log,
                                 const tcs::Payload& l) const {
  return objects_.vote(certifier, l,
                       [&](Slot k) -> const tcs::Payload& { return log.find(k)->payload; });
}

WitnessIndex::Witnesses WitnessIndex::collect(const ReplicaLog& log, Slot slot) const {
  Witnesses w;
  for (Slot k = 1; k < slot; ++k) {
    const LogEntry* e = log.find(k);
    if (e == nullptr) break;
    if (e->phase == Phase::kDecided && e->dec == Decision::kCommit) {
      w.l1.push_back(&e->payload);
      w.committed.push_back(e->txn);
    }
  }
  for (const auto& [k, txn] : prepared_) {
    if (k >= slot) break;
    w.l2.push_back(&log.find(k)->payload);
    w.prepared.push_back(txn);
  }
  return w;
}

}  // namespace ratc::commit
