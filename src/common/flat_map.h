// An ordered map over one sorted vector, for the small per-slot and
// per-transaction sets that follow the transactions in flight.
//
// A replica adds to these sets at the top end (a leader appends its next
// slot, a coordinator opens its next transaction), so an insert is usually
// a push_back; any other insert or erase is a binary search plus a shift of
// the in-flight set.  Iteration is in key order, as std::map's, and costs
// no node allocation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace ratc {

template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  /// The value under k, inserted value-initialised if absent.
  V& operator[](const K& k) {
    std::size_t i = position(k);
    if (!holds(i, k)) items_.insert(items_.begin() + i, {k, V{}});
    return items_[i].second;
  }

  /// Inserts (k, v) unless k is present; returns whether it inserted.
  bool emplace(const K& k, V v) {
    std::size_t i = position(k);
    if (holds(i, k)) return false;
    items_.insert(items_.begin() + i, {k, std::move(v)});
    return true;
  }

  /// Removes k; returns whether it was present.
  bool erase(const K& k) {
    std::size_t i = position(k);
    if (!holds(i, k)) return false;
    items_.erase(items_.begin() + i);
    return true;
  }

  bool contains(const K& k) const { return holds(position(k), k); }

  void clear() { items_.clear(); }
  std::size_t size() const { return items_.size(); }
  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }

 private:
  /// Index of the first element not below k; the end at once when k is
  /// above every key, the common case.
  std::size_t position(const K& k) const {
    if (items_.empty() || items_.back().first < k) return items_.size();
    auto it = std::lower_bound(items_.begin(), items_.end(), k,
                               [](const value_type& e, const K& key) { return e.first < key; });
    return static_cast<std::size_t>(it - items_.begin());
  }

  bool holds(std::size_t i, const K& k) const {
    return i < items_.size() && items_[i].first == k;
  }

  std::vector<value_type> items_;
};

}  // namespace ratc
