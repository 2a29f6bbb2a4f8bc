#include "tcs/history.h"

#include <set>
#include <sstream>

namespace ratc::tcs {

void History::record_certify(Time time, TxnId txn, Shared<Payload> payload) {
  TxnRecord& rec = txns_[txn];
  if (rec.certify_event == kNoEvent) rec.certify_event = events_.size();
  HistoryEvent ev;
  ev.kind = HistoryEvent::Kind::kCertify;
  ev.time = time;
  ev.txn = txn;
  ev.payload = std::move(payload);
  events_.push_back(std::move(ev));
}

void History::record_decide(Time time, TxnId txn, Decision d, Csn csn) {
  HistoryEvent ev;
  ev.kind = HistoryEvent::Kind::kDecide;
  ev.time = time;
  ev.txn = txn;
  ev.decision = d;
  events_.push_back(std::move(ev));
  TxnRecord& rec = txns_[txn];
  if (!rec.decision) {
    rec.decision = d;
    rec.decide_time = time;
  }
  if (d == Decision::kCommit && csn.ts != 0 && rec.csn.ts == 0) rec.csn = csn;
}

void History::record_snapshot_read(SnapshotReadRecord read) {
  snapshot_reads_.push_back(std::move(read));
}

const History::TxnRecord* History::txn_record(TxnId t) const {
  auto it = txns_.find(t);
  return it == txns_.end() ? nullptr : &it->second;
}

bool History::certified(TxnId t) const {
  const TxnRecord* rec = txn_record(t);
  return rec != nullptr && rec->certify_event != kNoEvent;
}

std::optional<Decision> History::decision_of(TxnId t) const {
  const TxnRecord* rec = txn_record(t);
  return rec == nullptr ? std::nullopt : rec->decision;
}

const Payload* History::payload_of(TxnId t) const {
  const TxnRecord* rec = txn_record(t);
  if (rec == nullptr || rec->certify_event == kNoEvent) return nullptr;
  return events_[rec->certify_event].payload.get();
}

std::optional<Csn> History::csn_of(TxnId t) const {
  const TxnRecord* rec = txn_record(t);
  if (rec == nullptr || rec->csn.ts == 0) return std::nullopt;
  return rec->csn;
}

std::optional<Time> History::first_decide_time(TxnId t) const {
  const TxnRecord* rec = txn_record(t);
  if (rec == nullptr || !rec->decision) return std::nullopt;
  return rec->decide_time;
}

bool History::complete() const {
  for (const auto& [t, rec] : txns_) {
    if (rec.certify_event != kNoEvent && !rec.decision) return false;
  }
  return true;
}

std::vector<TxnId> History::all_txns() const {
  std::vector<TxnId> out;
  out.reserve(txns_.size());
  for (const auto& [t, rec] : txns_) {
    if (rec.certify_event != kNoEvent) out.push_back(t);
  }
  return out;
}

std::vector<TxnId> History::committed_txns() const {
  std::vector<TxnId> out;
  for (const auto& [t, rec] : txns_) {
    if (rec.decision == Decision::kCommit) out.push_back(t);
  }
  return out;
}

std::size_t History::aborted_count() const {
  std::size_t n = 0;
  for (const auto& [t, rec] : txns_) {
    if (rec.decision == Decision::kAbort) ++n;
  }
  return n;
}

std::vector<TxnId> History::conflicting_decisions() const {
  std::set<TxnId> bad;
  for (const auto& ev : events_) {
    if (ev.kind != HistoryEvent::Kind::kDecide) continue;
    if (decision_of(ev.txn) != ev.decision) bad.insert(ev.txn);
  }
  return {bad.begin(), bad.end()};
}

std::string History::to_string() const {
  std::ostringstream os;
  for (const auto& ev : events_) {
    if (ev.kind == HistoryEvent::Kind::kCertify) {
      os << "t=" << ev.time << " certify(txn" << ev.txn << ", " << ev.payload->to_string()
         << ")\n";
    } else {
      os << "t=" << ev.time << " decide(txn" << ev.txn << ", "
         << tcs::to_string(ev.decision) << ")\n";
    }
  }
  return os.str();
}

}  // namespace ratc::tcs
