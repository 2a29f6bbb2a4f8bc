// Type-erased message envelope.
//
// Protocol modules define plain structs for each message kind (PREPARE,
// ACCEPT, ...).  The network carries them type-erased so heterogeneous
// processes (replicas, clients, the configuration service) share one
// simulator.  Receivers dispatch with `msg.as<Prepare>()`.
//
// Messages opt into richer tracing/stats by providing:
//   static constexpr const char* kName;   // message name for traces
//   std::size_t wire_size() const;        // approximate bytes on the wire
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <typeinfo>
#include <utility>

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

/// One object per message type; its address is the type's identity.  An
/// inline variable has one address program-wide, so comparing tags is one
/// pointer compare, where std::type_index equality falls back to comparing
/// the mangled names on every mismatch — and dispatch is mostly mismatches.
template <typename T>
inline constexpr char kTypeTag = 0;

class AnyMessage {
 public:
  /// Default: an EmptyMessage placeholder (lets AnyMessage live in standard
  /// containers).
  AnyMessage() : AnyMessage(EmptyMessage{}) {}

  template <typename T>
  explicit AnyMessage(T msg)
      : ptr_(std::make_shared<T>(std::move(msg))), tag_(&kTypeTag<T>) {
    const T& ref = *std::static_pointer_cast<const T>(ptr_);
    if constexpr (HasMessageName<T>) {
      name_ = T::kName;
    } else {
      name_ = typeid(T).name();
    }
    if constexpr (HasWireSize<T>) {
      size_ = ref.wire_size();
    } else {
      size_ = sizeof(T);
    }
  }

  /// Returns the contained message if it has dynamic type T, else nullptr.
  template <typename T>
  const T* as() const {
    if (!is<T>()) return nullptr;
    return static_cast<const T*>(ptr_.get());
  }

  template <typename T>
  bool is() const {
    return tag_ == &kTypeTag<std::remove_cv_t<T>>;
  }

  const char* type_name() const { return name_; }
  std::size_t wire_size() const { return size_; }

 private:
  std::shared_ptr<const void> ptr_;
  const char* tag_;  ///< &kTypeTag<T> of the contained type
  const char* name_ = "?";
  std::size_t size_ = 0;
};

}  // namespace ratc::sim
