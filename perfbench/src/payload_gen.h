// The benchmark's payload generator and the committed-version view its
// clients share.
//
// Every client reads versions from one view of the latest committed
// version per object, updated on each commit decision any client learns.
// A payload therefore only aborts on real contention: a concurrent writer
// of an object it touches, never a generator that forgot another client's
// commit.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "tcs/payload.h"

namespace perfbench {

/// Latest committed version per object of a keyspace [0, keyspace).  Safe
/// to read and update from any thread.
class VersionView {
 public:
  explicit VersionView(ratc::ObjectId keyspace) : versions_(keyspace) {}

  VersionView(const VersionView&) = delete;
  VersionView& operator=(const VersionView&) = delete;

  ratc::ObjectId keyspace() const { return versions_.size(); }

  ratc::Version read(ratc::ObjectId object) const {
    return versions_[object].load(std::memory_order_relaxed);
  }

  /// Raises each written object's version to the payload's commit version.
  void observe_commit(const ratc::tcs::Payload& p) {
    for (const auto& w : p.writes) {
      std::atomic<ratc::Version>& slot = versions_[w.object];
      ratc::Version cur = slot.load(std::memory_order_relaxed);
      while (cur < p.commit_version &&
             !slot.compare_exchange_weak(cur, p.commit_version, std::memory_order_relaxed)) {
      }
    }
  }

 private:
  std::vector<std::atomic<ratc::Version>> versions_;
};

/// Payloads of 1–3 distinct objects, each written with probability 0.6,
/// keys uniform or Zipf-skewed over the view's keyspace.  The objects drawn
/// depend only on the seed; the read versions come from the view.
class PayloadGen {
 public:
  /// `zipf` null selects uniform keys; non-null must cover the keyspace and
  /// outlive the generator.
  PayloadGen(std::uint64_t seed, const VersionView& view, const ratc::Zipfian* zipf)
      : rng_(seed), view_(view), zipf_(zipf) {}

  ratc::tcs::Payload next() {
    ratc::tcs::Payload p;
    std::uint64_t nobjs = 1 + rng_.below(3);
    ratc::Version maxv = 0;
    for (std::uint64_t j = 0; j < nobjs; ++j) {
      ratc::ObjectId obj = zipf_ != nullptr ? zipf_->sample(rng_) : rng_.below(view_.keyspace());
      if (p.reads_object(obj)) continue;
      ratc::Version v = view_.read(obj);
      p.reads.push_back({obj, v});
      if (v > maxv) maxv = v;
    }
    for (const auto& r : p.reads) {
      if (rng_.chance(0.6)) {
        p.writes.push_back({r.object, static_cast<ratc::Value>(rng_.below(1000))});
      }
    }
    p.commit_version = maxv + 1;
    return p;
  }

  /// Objects of a read-only transaction: 1–3 distinct keys from the same
  /// distribution.
  std::vector<ratc::ObjectId> next_read_set() {
    std::vector<ratc::ObjectId> objs;
    std::uint64_t nobjs = 1 + rng_.below(3);
    for (std::uint64_t j = 0; j < nobjs; ++j) {
      ratc::ObjectId obj = zipf_ != nullptr ? zipf_->sample(rng_) : rng_.below(view_.keyspace());
      bool dup = false;
      for (ratc::ObjectId o : objs) dup = dup || o == obj;
      if (!dup) objs.push_back(obj);
    }
    return objs;
  }

 private:
  ratc::Rng rng_;
  const VersionView& view_;
  const ratc::Zipfian* zipf_;
};

/// Seeds derived from the workload seed for independent streams.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
