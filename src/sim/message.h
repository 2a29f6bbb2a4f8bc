// Type-erased message envelope.
//
// Protocol modules define plain structs for each message kind (PREPARE,
// ACCEPT, ...).  The network carries them type-erased so heterogeneous
// processes (replicas, clients, the configuration service) share one
// simulator.  Receivers dispatch with `msg.as<Prepare>()`.
//
// Storage.  A trivially copyable message of at most kInlineSize bytes
// (ACCEPT_ACK, DECISION, DECISION_CLIENT, PROBE, ...) travels inline in the
// envelope: building, copying or moving it allocates nothing, and a copy
// is a plain byte copy.  Only trivially copyable messages qualify, because
// a byte copy of anything else would share or lose what it owns — copying
// an inline message can never deep-copy a vector.  Every other message
// lives in one reference-counted block: copying the envelope bumps the
// count, and the block is freed with its last envelope.  The default
// envelope holds an inline EmptyMessage.
//
// Messages opt into richer tracing/stats by providing:
//   static constexpr const char* kName;   // message name for traces
//   std::size_t wire_size() const;        // approximate bytes on the wire
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <typeinfo>
#include <utility>

#include "common/shared.h"

namespace ratc::sim {

template <typename T>
concept HasMessageName = requires { { T::kName } -> std::convertible_to<const char*>; };

template <typename T>
concept HasWireSize = requires(const T& t) {
  { t.wire_size() } -> std::convertible_to<std::size_t>;
};

/// Payload of a default-constructed AnyMessage.
struct EmptyMessage {
  static constexpr const char* kName = "EMPTY";
};

namespace detail {

/// A message held in a reference-counted block.
template <typename T>
struct SharedMessage : RefCount {
  explicit SharedMessage(T&& m) : msg(std::move(m)) {}
  T msg;
};

/// What an envelope knows of the type it holds.  One object per message
/// type; its address is the type's identity.  An inline variable has one
/// address program-wide, so a type check is one pointer compare, where
/// std::type_index equality falls back to comparing the mangled names on
/// every mismatch — and dispatch is mostly mismatches.
struct MessageType {
  const char* (*name)();
  /// Frees a shared block; null for a type held inline.
  void (*free)(const RefCount*);
};

}  // namespace detail

class AnyMessage {
 public:
  /// Largest message kept inline; DECISION, the largest message sent once
  /// per participant member, fills it.
  static constexpr std::size_t kInlineSize = 48;

  template <typename T>
  static constexpr bool kInline = std::is_trivially_copyable_v<T> &&
                                  sizeof(T) <= kInlineSize && alignof(T) <= alignof(void*);

  /// An EmptyMessage placeholder (lets AnyMessage live in standard
  /// containers); allocates nothing.
  AnyMessage() : AnyMessage(EmptyMessage{}) {}

  template <typename T>
    requires(!std::is_same_v<T, AnyMessage>)
  explicit AnyMessage(T msg) : type_(&kType<T>) {
    if constexpr (HasWireSize<T>) {
      size_ = msg.wire_size();
    } else {
      size_ = sizeof(T);
    }
    if constexpr (kInline<T>) {
      ::new (static_cast<void*>(storage_.bytes)) T(msg);
    } else {
      storage_.block = new detail::SharedMessage<T>(std::move(msg));
    }
  }

  AnyMessage(const AnyMessage& other) noexcept
      : storage_(other.storage_), type_(other.type_), size_(other.size_) {
    if (type_->free != nullptr) storage_.block->retain();
  }

  AnyMessage(AnyMessage&& other) noexcept
      : storage_(other.storage_), type_(other.type_), size_(other.size_) {
    other.type_ = &kType<EmptyMessage>;
  }

  AnyMessage& operator=(AnyMessage other) noexcept {
    std::swap(storage_, other.storage_);
    std::swap(type_, other.type_);
    std::swap(size_, other.size_);
    return *this;
  }

  ~AnyMessage() {
    if (type_->free != nullptr && storage_.block->release()) type_->free(storage_.block);
  }

  /// Returns the contained message if it has dynamic type T, else nullptr.
  template <typename T>
  const T* as() const {
    if (!is<T>()) return nullptr;
    if constexpr (kInline<T>) {
      return std::launder(reinterpret_cast<const T*>(storage_.bytes));
    } else {
      return &static_cast<const detail::SharedMessage<T>*>(storage_.block)->msg;
    }
  }

  template <typename T>
  bool is() const {
    return type_ == &kType<std::remove_cv_t<T>>;
  }

  const char* type_name() const { return type_->name(); }
  std::size_t wire_size() const { return size_; }
  /// The held type's descriptor: one object per message type, so its
  /// address keys per-type tables without building a name.
  const detail::MessageType* descriptor() const { return type_; }

 private:
  template <typename T>
  static const char* name_of() {
    if constexpr (HasMessageName<T>) {
      return T::kName;
    } else {
      return typeid(T).name();
    }
  }

  template <typename T>
  static void free_shared(const RefCount* block) {
    delete static_cast<const detail::SharedMessage<T>*>(block);
  }

  template <typename T>
  static constexpr detail::MessageType kType{&name_of<T>,
                                             kInline<T> ? nullptr : &free_shared<T>};

  union Storage {
    alignas(void*) unsigned char bytes[kInlineSize];
    const RefCount* block;
  };

  Storage storage_;
  const detail::MessageType* type_;
  std::size_t size_ = 0;
};

}  // namespace ratc::sim
