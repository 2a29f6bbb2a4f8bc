// One immutable value held by every hop that carries it.
//
// Fig. 1 projects a transaction's payload once (line 3) and afterwards only
// carries it: PREPARE_ACK returns it (lines 7, 17) and ACCEPT replicates it
// (line 20).  Shared<T> lets each of those messages hold the one object
// instead of a copy: copying a handle bumps a reference count, and the value
// can never change once built, so handles may cross threads freely.
//
// A handle is never null.  A default handle refers to one static ε per type
// through a non-owning pointer, so building, copying and destroying it
// touches no count, and in particular no count that every worker shares.
// A handle is implicitly built from a T (aggregate-initialised messages take
// a plain value), and == compares values.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>

namespace ratc {

/// The reference count behind Shared<T> and sim::AnyMessage's shared
/// blocks.  A block starts with one reference, its creator's.
struct RefCount {
  mutable std::atomic<std::uint32_t> refs{1};

  void retain() const noexcept { refs.fetch_add(1, std::memory_order_relaxed); }

  /// Drops one reference; true when it was the last and the caller must
  /// free the block.  A count of one means the caller holds the only
  /// reference, so no other thread can be copying it: that case frees
  /// without an atomic read-modify-write.
  bool release() const noexcept {
    return refs.load(std::memory_order_acquire) == 1 ||
           refs.fetch_sub(1, std::memory_order_acq_rel) == 1;
  }
};

template <typename T>
class Shared {
 public:
  /// ε: the static default value, not counted.
  Shared() noexcept : block_(&kEmpty.block) {}
  Shared(const T& value) : block_(new Block{{}, value}) {}
  Shared(T&& value) : block_(new Block{{}, std::move(value)}) {}
  Shared(const Shared& other) noexcept : block_(other.block_) {
    if (block_ != &kEmpty.block) block_->retain();
  }
  Shared(Shared&& other) noexcept : block_(std::exchange(other.block_, &kEmpty.block)) {}
  Shared& operator=(Shared other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~Shared() {
    if (block_ != &kEmpty.block && block_->release()) delete block_;
  }

  const T& operator*() const noexcept { return block_->value; }
  const T* operator->() const noexcept { return &block_->value; }
  const T* get() const noexcept { return &block_->value; }

  friend bool operator==(const Shared& a, const Shared& b) {
    return a.block_ == b.block_ || a.block_->value == b.block_->value;
  }

 private:
  struct Block : RefCount {
    T value;
  };

  /// Holds ε without ever destroying it, so a handle outliving static
  /// destruction still reads a valid value.
  union Empty {
    constexpr Empty() : block() {}
    ~Empty() {}
    Block block;
  };
  static constinit const Empty kEmpty;

  const Block* block_;
};

template <typename T>
constinit const typename Shared<T>::Empty Shared<T>::kEmpty{};

}  // namespace ratc
