#include "commit/witness_index.h"

namespace ratc::commit {

using tcs::Decision;

namespace {

/// True if `pred` holds for some object of p's reads ∪ writes; each object
/// is offered once (writes ⊆ reads for a well-formed payload, so the writes
/// pass usually offers nothing).
template <typename Pred>
bool any_object(const tcs::Payload& p, Pred pred) {
  for (const auto& r : p.reads) {
    if (pred(r.object)) return true;
  }
  for (const auto& w : p.writes) {
    if (!p.reads_object(w.object) && pred(w.object)) return true;
  }
  return false;
}

template <typename Fn>
void for_each_object(const tcs::Payload& p, Fn fn) {
  any_object(p, [&](ObjectId obj) {
    fn(obj);
    return false;
  });
}

}  // namespace

void WitnessIndex::clear() {
  prepared_.clear();
  committed_writer_.clear();
  prepared_by_object_.clear();
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

void WitnessIndex::index_committed_writer(Slot k, const tcs::Payload& p) {
  for (const auto& w : p.writes) {
    CommittedWriter& top = committed_writer_[w.object];
    // Highest commit version wins; among equals, the later slot (any one of
    // them decides the pairwise check identically — see header).
    if (top.slot == kNoSlot || p.commit_version > top.version ||
        (p.commit_version == top.version && k > top.slot)) {
      top.version = p.commit_version;
      top.slot = k;
    }
  }
}

void WitnessIndex::on_prepared(const ReplicaLog& log, Slot k) {
  const LogEntry* e = log.find(k);
  if (e == nullptr || e->phase != Phase::kPrepared) return;
  if (e->vote != Decision::kCommit) return;  // only commit votes enter L2
  if (!prepared_.emplace(k, e->txn)) return;  // duplicate notification
  for_each_object(e->payload, [&](ObjectId obj) { prepared_by_object_.emplace(obj, k); });
}

void WitnessIndex::on_decided(const ReplicaLog& log, Slot k) {
  const LogEntry* e = log.find(k);
  if (e == nullptr || e->phase != Phase::kDecided) return;
  // Leave L2 regardless of the outcome.
  if (prepared_.erase(k)) {
    for_each_object(e->payload, [&](ObjectId obj) {
      auto [it, end] = prepared_by_object_.equal_range(obj);
      while (it != end && it->second != k) ++it;
      if (it != end) prepared_by_object_.erase(it);
    });
  }
  if (e->dec != Decision::kCommit) return;
  if (committed_seen_.size() < k) committed_seen_.resize(k);
  if (committed_seen_[k - 1]) return;  // duplicate notification
  committed_seen_[k - 1] = true;
  ++committed_count_;
  index_committed_writer(k, e->payload);
}

tcs::Decision WitnessIndex::vote(const tcs::Certifier& certifier, const ReplicaLog& log,
                                 const tcs::Payload& l) const {
  bool abort = any_object(l, [&](ObjectId obj) {
    // f_s(L1, l): only the highest-version committed writer of the object
    // can flip the monotone pairwise check.
    auto top = committed_writer_.find(obj);
    if (top != committed_writer_.end() &&
        certifier.against_committed(log.find(top->second.slot)->payload, l) ==
            Decision::kAbort) {
      return true;
    }
    // g_s(L2, l): every prepared payload touching the object.
    auto [it, end] = prepared_by_object_.equal_range(obj);
    for (; it != end; ++it) {
      if (certifier.against_prepared(log.find(it->second)->payload, l) == Decision::kAbort) {
        return true;
      }
    }
    return false;
  });
  return abort ? Decision::kAbort : Decision::kCommit;
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
