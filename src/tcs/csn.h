// Commit sequence numbers (CSNs) for the read-only snapshot fast path.
//
// Every committed transaction t gets a csn(t) = <ts, txn>: ts is the maximum
// of the leader-stamped prepare timestamps over t's participant shards (the
// point after which every participant had t prepared), and txn breaks ties.
// CSNs totally order committed transactions consistently with the
// certification order per object: a writer of version v+1 read version v,
// which was only observable after v's writer committed — strictly after that
// writer's every prepare stamp (see checker/snapshot.h for the enforced
// property).
//
// A replica's *watermark* is the largest snapshot it can serve locally:
// one below the smallest prepare timestamp among its prepared-undecided
// slots (any future commit lands above it), or "now" when nothing is in
// flight.  The exemplar shape is the postgres-scaleout csn_log (xid -> CSN
// mapping enabling consistent cross-shard snapshots).
#pragma once

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace ratc::tcs {

inline constexpr TxnId kMaxTxnId = std::numeric_limits<TxnId>::max();

struct Csn {
  Time ts = 0;
  TxnId txn = 0;

  friend bool operator==(const Csn&, const Csn&) = default;
  friend bool operator<(const Csn& a, const Csn& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.txn < b.txn;
  }
  friend bool operator<=(const Csn& a, const Csn& b) { return a < b || a == b; }
  friend bool operator>(const Csn& a, const Csn& b) { return b < a; }
  friend bool operator>=(const Csn& a, const Csn& b) { return b <= a; }

  std::string to_string() const {
    return "<" + std::to_string(ts) + "," + std::to_string(txn) + ">";
  }
};

/// Watermark just below the given prepare timestamp: every csn whose ts is
/// strictly below `prepare_ts` compares <= the result.
inline Csn watermark_below(Time prepare_ts) {
  if (prepare_ts == 0) return Csn{0, 0};
  return Csn{prepare_ts - 1, kMaxTxnId};
}

/// Watermark admitting everything stamped up to and including `now`.
inline Csn watermark_at(Time now) { return Csn{now, kMaxTxnId}; }

/// A replica's watermark given the smallest prepare stamp among its
/// prepared-undecided transactions (none: everything up to `now`).
inline Csn watermark(std::optional<Time> min_prepared_ts, Time now) {
  return min_prepared_ts ? watermark_below(*min_prepared_ts) : watermark_at(now);
}

/// The prepare stamps of a replica's prepared-undecided transactions, kept
/// ordered so the watermark reads the smallest directly instead of scanning
/// every transaction the replica has seen (the baseline's shard servers;
/// the commit and rdma replicas read their in-flight slot set instead, see
/// commit::ReplicaLog::min_prepared_ts).  Each key is (prepare_ts, txn),
/// so transactions sharing a stamp stay apart.
///
/// A sorted vector rather than a node-based set: stamps are issued in
/// nearly increasing order and transactions decide in nearly FIFO order, so
/// inserts land at the back and an erase shifts only the in-flight keys,
/// with no allocation per transaction.
class PreparedStamps {
 public:
  void insert(Time ts, TxnId txn) {
    const Key key{ts, txn};
    keys_.insert(std::upper_bound(keys_.begin(), keys_.end(), key), key);
  }

  void erase(Time ts, TxnId txn) {
    const Key key{ts, txn};
    auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    if (it != keys_.end() && *it == key) keys_.erase(it);
  }

  /// The smallest stamp held, or nullopt when nothing is prepared.
  std::optional<Time> min() const {
    if (keys_.empty()) return std::nullopt;
    return keys_.front().first;
  }

 private:
  using Key = std::pair<Time, TxnId>;
  std::vector<Key> keys_;
};

}  // namespace ratc::tcs
