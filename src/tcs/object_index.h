// Object-indexed certification vote — the one implementation of Fig. 1
// line 12's f_s(L1, l) ⊓ g_s(L2, l) that every stack votes through: the
// commit and rdma replicas (commit::WitnessIndex, keyed by log slot) and
// the 2PC baseline's shard servers (keyed by transaction).
//
// Both shipped certifiers are *object-local*: a pairwise check can only
// abort through an object both payloads touch, and the committed-side check
// is monotone in the committed payload's commit version ("abort iff
// commit_version > some per-object threshold").  That licenses an index:
//
//   * object -> the committed writer with the highest commit version (ties
//     broken towards the larger key) — checking only these per object of l
//     decides f_s(L1, l) exactly;
//   * object -> prepared (commit-vote) keys, one multimap entry per object
//     of the payload's reads ∪ writes — the keys listed under l's objects
//     are exactly the prepared payloads whose pairwise g_s check can abort.
//
// The vote checks each candidate as it finds it: the fold is a meet, so
// neither the order of the checks nor a payload checked twice (through two
// shared objects) changes it.  The result equals the flat fold over every
// committed and prepared payload by construction (payloads skipped by the
// index return kCommit from the pairwise check), so a vote costs
// O(objects of l × candidates) instead of O(history).
//
// The index holds keys, never payload pointers: the caller passes a lookup
// key -> payload to vote(), inlined as a template argument, so the payloads
// may live in storage that moves (a replica's log grows by vector resize).
// The caller owns the bookkeeping of which keys are in which set: each add
// is called once per key, and remove_prepared only for a key that
// add_prepared indexed, with the same payload.
#pragma once

#include <unordered_map>

#include "tcs/certifier.h"

namespace ratc::tcs {

template <typename Key>
class ObjectIndex {
 public:
  void clear() {
    committed_writer_.clear();
    prepared_by_object_.clear();
  }

  /// p, prepared under key k with a commit vote, enters L2.
  void add_prepared(Key k, const Payload& p) {
    for_each_object(p, [&](ObjectId obj) { prepared_by_object_.emplace(obj, k); });
  }

  /// The prepared payload p under key k leaves L2 (decided either way).
  void remove_prepared(Key k, const Payload& p) {
    for_each_object(p, [&](ObjectId obj) {
      auto [it, end] = prepared_by_object_.equal_range(obj);
      while (it != end && it->second != k) ++it;
      if (it != end) prepared_by_object_.erase(it);
    });
  }

  /// p, committed under key k, enters L1 through each object it writes.
  void add_committed(Key k, const Payload& p) {
    for (const auto& w : p.writes) {
      auto [it, fresh] =
          committed_writer_.try_emplace(w.object, CommittedWriter{p.commit_version, k});
      CommittedWriter& top = it->second;
      // Highest commit version wins; among equals, the larger key (any one
      // of them decides the pairwise check identically — see above).
      if (!fresh && (p.commit_version > top.version ||
                     (p.commit_version == top.version && k > top.key))) {
        top = {p.commit_version, k};
      }
    }
  }

  /// f_s(L1, l) ⊓ g_s(L2, l) over the indexed payloads, touching only those
  /// that share an object with l; `payload_of(key)` returns the payload
  /// indexed under key.
  template <typename PayloadOf>
  Decision vote(const Certifier& certifier, const Payload& l, PayloadOf&& payload_of) const {
    bool abort = any_object(l, [&](ObjectId obj) {
      // f_s(L1, l): only the highest-version committed writer of the object
      // can flip the monotone pairwise check.
      auto top = committed_writer_.find(obj);
      if (top != committed_writer_.end() &&
          certifier.against_committed(payload_of(top->second.key), l) == Decision::kAbort) {
        return true;
      }
      // g_s(L2, l): every prepared payload touching the object.
      auto [it, end] = prepared_by_object_.equal_range(obj);
      for (; it != end; ++it) {
        if (certifier.against_prepared(payload_of(it->second), l) == Decision::kAbort) {
          return true;
        }
      }
      return false;
    });
    return abort ? Decision::kAbort : Decision::kCommit;
  }

 private:
  struct CommittedWriter {
    Version version = 0;
    Key key{};
  };

  /// True if `pred` holds for some object of p's reads ∪ writes; each object
  /// is offered once (writes ⊆ reads for a well-formed payload, so the
  /// writes pass usually offers nothing).
  template <typename Pred>
  static bool any_object(const Payload& p, Pred pred) {
    for (const auto& r : p.reads) {
      if (pred(r.object)) return true;
    }
    for (const auto& w : p.writes) {
      if (!p.reads_object(w.object) && pred(w.object)) return true;
    }
    return false;
  }

  template <typename Fn>
  static void for_each_object(const Payload& p, Fn fn) {
    any_object(p, [&](ObjectId obj) {
      fn(obj);
      return false;
    });
  }

  /// object -> committed writer with the highest commit version.
  std::unordered_map<ObjectId, CommittedWriter> committed_writer_;
  /// object -> prepared (commit-vote) key, once per object the key's
  /// payload reads or writes.
  std::unordered_multimap<ObjectId, Key> prepared_by_object_;
};

}  // namespace ratc::tcs
