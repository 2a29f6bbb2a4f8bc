// Mapping of objects to shards and payload projection l|s (paper Sec. 2).
//
// shards(t) in the paper is a function of the transaction id; in this
// implementation the participant set is derived from the payload (the
// shards storing the objects it accesses) and then carried inside protocol
// messages, which is what lets `retry` work at any replica that has the
// transaction prepared.
#pragma once

#include <algorithm>
#include <iterator>
#include <vector>

#include "common/shared.h"
#include "common/types.h"
#include "tcs/payload.h"

namespace ratc::tcs {

class ShardMap {
 public:
  explicit ShardMap(std::uint32_t num_shards) : num_shards_(num_shards) {}

  std::uint32_t num_shards() const { return num_shards_; }

  ShardId shard_of(ObjectId object) const {
    return static_cast<ShardId>(object % num_shards_);
  }

  /// The projection l|s: the parts of the payload relevant to shard s.
  /// For s ∉ shards(l) this is ε, as the paper requires.
  Payload project(const Payload& l, ShardId s) const {
    Payload out;
    out.commit_version = l.commit_version;
    copy_on_shard(l.reads, s, out.reads);
    copy_on_shard(l.writes, s, out.writes);
    return out;
  }

  /// The projection l|s as a handle.  A payload that lies wholly on s is
  /// its own projection, and a shard the payload does not touch gets ε;
  /// only a payload split across shards is copied, once per shard.
  Shared<Payload> project(const Shared<Payload>& l, ShardId s) const {
    bool all_on_s = true, any_on_s = false;
    auto visit = [&](ObjectId object) {
      bool on_s = shard_of(object) == s;
      all_on_s = all_on_s && on_s;
      any_on_s = any_on_s || on_s;
    };
    for (const auto& r : l->reads) visit(r.object);
    for (const auto& w : l->writes) visit(w.object);
    if (all_on_s) return l;
    if (!any_on_s) return {};
    return project(*l, s);
  }

  /// shards(t): the sorted set of shards that must certify the payload.
  std::vector<ShardId> shards_of(const Payload& l) const {
    std::vector<ShardId> s;
    s.reserve(l.reads.size() + l.writes.size());
    for (const auto& r : l.reads) s.push_back(shard_of(r.object));
    for (const auto& w : l.writes) s.push_back(shard_of(w.object));
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    return s;
  }

 private:
  /// Appends the entries of `in` stored on shard s to `out`, allocating
  /// once, at the exact size.
  template <typename Entry>
  void copy_on_shard(const std::vector<Entry>& in, ShardId s, std::vector<Entry>& out) const {
    auto on_s = [&](const Entry& e) { return shard_of(e.object) == s; };
    out.reserve(static_cast<std::size_t>(std::count_if(in.begin(), in.end(), on_s)));
    std::copy_if(in.begin(), in.end(), std::back_inserter(out), on_s);
  }

  std::uint32_t num_shards_;
};

}  // namespace ratc::tcs
