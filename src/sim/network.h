// Reliable FIFO message-passing network (paper Sec. 3 "system model"):
// messages between non-faulty processes are eventually delivered, in FIFO
// order per sender-receiver pair.  Crashed senders send nothing; deliveries
// to crashed receivers are dropped.
//
// Delay models:
//  * unit-delay (default): every hop takes exactly 1 tick, so virtual time
//    equals the paper's "message delays" — used by the latency benches to
//    reproduce the 5-vs-7 delay claims.
//  * exponential: per-hop delay ~ Exp(mean), floored at 1 tick, with FIFO
//    enforced by clamping to the previous delivery time on the channel.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "rt/sim_runtime.h"
#include "sim/fault.h"
#include "sim/message.h"
#include "sim/simulator.h"

namespace ratc::sim {

/// Tap interface for protocol monitors and tracers.
class NetworkObserver {
 public:
  virtual ~NetworkObserver() = default;
  virtual void on_send(Time now, ProcessId from, ProcessId to, const AnyMessage& msg) {
    (void)now; (void)from; (void)to; (void)msg;
  }
  virtual void on_deliver(Time now, ProcessId from, ProcessId to, const AnyMessage& msg) {
    (void)now; (void)from; (void)to; (void)msg;
  }
  /// A message was discarded (sender or receiver crashed).
  virtual void on_drop(Time now, ProcessId from, ProcessId to, const AnyMessage& msg) {
    (void)now; (void)from; (void)to; (void)msg;
  }
};

/// Per-process traffic counters, broken down by message type for the
/// leader-load experiment (E3).  The per-type counts are kept by the
/// envelope's type descriptor, so counting a message builds no string; the
/// by-name maps are built when read.
class ProcessTraffic {
 public:
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;

  /// Messages sent (received) by message type name; types never sent
  /// (received) are absent.
  std::map<std::string, std::uint64_t> sent_by_type() const;
  std::map<std::string, std::uint64_t> received_by_type() const;

 private:
  friend class Network;
  struct TypeCount {
    const detail::MessageType* type;
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
  };
  TypeCount& count_of(const AnyMessage& msg);

  /// A process sends and receives a handful of types: a linear scan by
  /// descriptor address beats any keyed container.
  std::vector<TypeCount> by_type_;
};

class Network {
 public:
  struct Options {
    /// Samples the propagation delay of one message.  Defaults to unit delay.
    std::function<Duration(Rng&, ProcessId from, ProcessId to)> delay;
  };

  static Options unit_delay_options();
  static Options exponential_delay_options(double mean);

  Network(Simulator& sim, Options options = unit_delay_options());

  /// Sends a message.  No-op if the sender has already crashed.
  void send(ProcessId from, ProcessId to, AnyMessage msg);

  /// Convenience: wrap-and-send.
  template <typename T>
  void send_msg(ProcessId from, ProcessId to, T msg) {
    send(from, to, AnyMessage(std::move(msg)));
  }

  void add_observer(NetworkObserver* obs) { observers_.push_back(obs); }

  /// Installs (or with nullptr removes) a fault-injection hook consulted on
  /// every send.  Dropped messages are reported to observers via on_drop.
  void set_fault_injector(FaultInjector* fi) { fault_ = fi; }

  const ProcessTraffic& traffic(ProcessId p) const;
  std::uint64_t total_messages() const { return total_messages_; }
  std::uint64_t total_bytes() const { return total_bytes_; }

  Simulator& simulator() { return sim_; }

  /// This network's rt::Runtime view (sim clock/timers/rng + this network's
  /// send path) — what protocol classes bind to in sim-twin harnesses.
  rt::SimRuntime& runtime() { return runtime_; }

 private:
  friend class Simulator;  // runs the delivery events send() schedules
  void deliver(ProcessId from, ProcessId to, const AnyMessage& msg);

  Simulator& sim_;
  rt::SimRuntime runtime_;
  Options options_;
  std::vector<NetworkObserver*> observers_;
  FaultInjector* fault_ = nullptr;
  /// Last scheduled delivery time per (from,to) channel; enforces FIFO.
  std::unordered_map<std::uint64_t, Time> channel_clock_;
  std::unordered_map<ProcessId, ProcessTraffic> traffic_;
  std::uint64_t total_messages_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace ratc::sim
