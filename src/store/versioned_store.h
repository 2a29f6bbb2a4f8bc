// Versioned key-value store: the transactional data the TCS certifies.
//
// Objects carry totally ordered versions (paper Sec. 2).  The store holds
// the *committed* state; optimistic execution reads it, and committed
// payloads are applied back to it.  This provides the Sec. 2 assumption
// that "transactions submitted for certification only read versions written
// by previously committed transactions".
//
// SnapshotStore, the multi-version store replicas serve CSN reads from and
// file every commit into, hashes its object table: it is never listed, and
// a hash probe is what every snapshot read and every decision apply pays.
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "tcs/csn.h"
#include "tcs/payload.h"

namespace ratc::store {

struct VersionedValue {
  Value value = 0;
  Version version = 0;  ///< 0 = never written
};

class VersionedStore {
 public:
  /// Latest committed value/version (default-initialized if never written).
  VersionedValue read(ObjectId object) const {
    auto it = data_.find(object);
    return it == data_.end() ? VersionedValue{} : it->second;
  }

  /// Applies the writes of a committed payload at its commit version.
  /// Out-of-order application is tolerated: only newer versions overwrite.
  void apply(const tcs::Payload& payload) {
    for (const auto& w : payload.writes) {
      VersionedValue& v = data_[w.object];
      if (payload.commit_version > v.version) {
        v.value = w.value;
        v.version = payload.commit_version;
      }
    }
  }

  std::size_t size() const { return data_.size(); }

 private:
  std::map<ObjectId, VersionedValue> data_;
};

/// One retained committed version of one object, tagged with the csn of the
/// transaction that wrote it.
struct SnapVersion {
  Version version = 0;
  Value value = 0;
  tcs::Csn csn;
};

/// Multi-version committed store for the CSN read fast path: per object, a
/// bounded history of committed versions ordered by csn, so a read at any
/// snapshot at or below the replica's watermark resolves locally.
///
/// Snapshot visibility is gated on the csn alone, never on apply order:
/// `apply_at` inserts into csn position, so decisions landing out of order
/// (the VersionedStore::apply hole this replaces on the read path) can never
/// expose a non-prefix state — a version is visible at snapshot c iff its
/// writer's csn <= c, and the caller only reads at snapshots the watermark
/// proves complete.
class SnapshotStore {
 public:
  explicit SnapshotStore(std::size_t history_depth = 16)
      : history_depth_(history_depth == 0 ? 1 : history_depth) {}

  /// Applies the writes of a committed payload at the writer's csn.
  void apply_at(const tcs::Payload& payload, tcs::Csn csn) {
    for (const auto& w : payload.writes) {
      ObjHistory& h = data_[w.object];
      // Idempotent: a duplicate decision re-applies the same csn.
      auto dup = std::find_if(h.versions.begin(), h.versions.end(),
                              [&](const SnapVersion& v) { return v.csn == csn; });
      if (dup != h.versions.end()) continue;
      SnapVersion v{payload.commit_version, w.value, csn};
      auto pos = std::upper_bound(
          h.versions.begin(), h.versions.end(), v,
          [](const SnapVersion& a, const SnapVersion& b) { return a.csn < b.csn; });
      h.versions.insert(pos, v);
      while (h.versions.size() > history_depth_) {
        h.versions.erase(h.versions.begin());
        h.truncated = true;
      }
    }
  }

  /// Latest version with csn <= snapshot.  Returns nullopt when the answer
  /// is unknowable: the history below the snapshot was truncated away.  An
  /// object never written below the snapshot reads as version 0.
  std::optional<VersionedValue> read_at(ObjectId object, tcs::Csn snapshot) const {
    auto it = data_.find(object);
    if (it == data_.end()) return VersionedValue{};
    const ObjHistory& h = it->second;
    const SnapVersion* best = nullptr;
    for (const SnapVersion& v : h.versions) {
      if (v.csn <= snapshot) best = &v;
      else break;
    }
    if (best != nullptr) return VersionedValue{best->value, best->version};
    // Nothing retained at or below the snapshot: either the object truly
    // did not exist there, or the evidence was truncated.
    if (h.truncated) return std::nullopt;
    return VersionedValue{};
  }

  /// Drops everything (NEW_STATE / NEW_CONFIG rebuild from the log).
  void clear() { data_.clear(); }

  std::size_t size() const { return data_.size(); }
  std::size_t history_depth() const { return history_depth_; }

 private:
  struct ObjHistory {
    std::vector<SnapVersion> versions;  ///< csn-ascending
    bool truncated = false;             ///< oldest versions evicted
  };
  std::size_t history_depth_;
  std::unordered_map<ObjectId, ObjHistory> data_;
};

}  // namespace ratc::store
