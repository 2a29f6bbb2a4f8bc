// Message-flow tracer: records every send/deliver so tests and benches can
// assert or print the flows of the paper's Figure 2a/2b diagrams.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sim/network.h"

namespace ratc::sim {

struct TraceEntry {
  Time time = 0;
  enum class Kind { kSend, kDeliver, kDrop } kind = Kind::kSend;
  ProcessId from = kNoProcess;
  ProcessId to = kNoProcess;
  /// The message type's static name (AnyMessage::type_name()).
  std::string_view type;
};

class Tracer : public NetworkObserver {
 public:
  void on_send(Time now, ProcessId from, ProcessId to, const AnyMessage& msg) override {
    entries_.push_back({now, TraceEntry::Kind::kSend, from, to, msg.type_name()});
  }
  void on_deliver(Time now, ProcessId from, ProcessId to, const AnyMessage& msg) override {
    entries_.push_back({now, TraceEntry::Kind::kDeliver, from, to, msg.type_name()});
  }
  void on_drop(Time now, ProcessId from, ProcessId to, const AnyMessage& msg) override {
    entries_.push_back({now, TraceEntry::Kind::kDrop, from, to, msg.type_name()});
  }

  const std::vector<TraceEntry>& entries() const { return entries_; }
  void clear() { entries_.clear(); }

  /// Sequence of message type names delivered, in order (ignores drops).
  std::vector<std::string> delivered_types() const {
    std::vector<std::string> out;
    for (const auto& e : entries_) {
      if (e.kind == TraceEntry::Kind::kDeliver) out.emplace_back(e.type);
    }
    return out;
  }

  /// True if a message of the given type was ever delivered.
  bool delivered(std::string_view type) const {
    for (const auto& e : entries_) {
      if (e.kind == TraceEntry::Kind::kDeliver && e.type == type) return true;
    }
    return false;
  }

  /// Pretty-print (used by the trace sections of the benches).
  std::string render() const {
    std::string out;
    for (const auto& e : entries_) {
      const char* k = e.kind == TraceEntry::Kind::kSend
                          ? "send  "
                          : (e.kind == TraceEntry::Kind::kDeliver ? "deliver" : "drop  ");
      out += "t=" + std::to_string(e.time) + "\t" + k + "\t" +
             process_name(e.from) + " -> " + process_name(e.to) + "\t";
      out += e.type;
      out += "\n";
    }
    return out;
  }

 private:
  std::vector<TraceEntry> entries_;
};

}  // namespace ratc::sim
