// Simulated RDMA communication primitive (paper Sec. 5).
//
// Models one-sided writes into per-sender circular buffers at the receiver:
//   * send_rdma(m, to): the sender's NIC ships m; when it lands in the
//     receiver's memory, the receiver's NIC acknowledges WITHOUT involving
//     the receiver's CPU (ack-rdma), and the receiver's CPU later polls the
//     buffer and delivers (deliver-rdma).
//   * open/close: connection management.  After close(p) completes, p's
//     writes no longer land — including writes already in flight, exactly
//     the lever the corrected reconfiguration protocol (Fig. 4b) relies on.
//   * flush(): synchronously delivers every message that has already been
//     acknowledged into local memory (used at NEW_CONFIG, Fig. 8 line 142).
//
// The model deliberately preserves the property that makes Figure 4a's
// counter-example possible: a write that lands is acknowledged even if the
// receiver's protocol state would have rejected it — the receiver CPU is
// not consulted.
//
// A process's write to its OWN memory is different: physically it is a
// synchronous CPU store, not a DMA.  send_rdma therefore lands and
// delivers it immediately (no connection check, no fault injection, no
// in-flight window), with only the completion notification deferred to the
// next event at the same tick.  So a self-write cannot straddle an epoch
// change, which lets the invariant monitor check property (*) on every
// landing without a self-write exemption.  It is not stopped by close_all,
// though: a probed replica that still coordinates at its old epoch lands
// RAccept writes in its own memory after its PROBE_ACK, which is why the
// monitor does not check Inv 3 on this substrate (commit/monitor.h).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/fault.h"
#include "sim/message.h"
#include "sim/simulator.h"

namespace ratc::rdma {

/// Tap for monitors/tracers on one-sided traffic.
class FabricObserver {
 public:
  virtual ~FabricObserver() = default;
  virtual void on_write(Time now, ProcessId from, ProcessId to, const sim::AnyMessage& m) {
    (void)now; (void)from; (void)to; (void)m;
  }
  /// The write landed in `to`'s memory (NIC ack generated).
  virtual void on_landed(Time now, ProcessId from, ProcessId to, const sim::AnyMessage& m) {
    (void)now; (void)from; (void)to; (void)m;
  }
  /// The write was rejected (connection closed or receiver crashed).
  virtual void on_rejected(Time now, ProcessId from, ProcessId to, const sim::AnyMessage& m) {
    (void)now; (void)from; (void)to; (void)m;
  }
};

/// NIC acknowledgement delivered to the *sender* when its write lands.
struct RdmaAck {
  static constexpr const char* kName = "ACK_RDMA";
  ProcessId dest = kNoProcess;   ///< whose memory the write reached
  std::uint64_t token = 0;       ///< send_rdma's return value
};

class Fabric {
 public:
  struct Options {
    /// Propagation delay of a one-sided write (and of the hardware ack).
    std::function<Duration(Rng&, ProcessId from, ProcessId to)> delay;
    /// Delay between a write landing and the receiver's CPU polling it.
    Duration poll_delay = 1;
  };

  static Options unit_delay_options();

  Fabric(sim::Simulator& sim, Options options = unit_delay_options());

  /// Registers a process; `deliver` is the deliver-rdma upcall, `ack` the
  /// ack-rdma upcall (NIC completion at the sender).
  void attach(ProcessId p,
              std::function<void(ProcessId from, const sim::AnyMessage&)> deliver,
              std::function<void(const RdmaAck&)> ack);

  void open(ProcessId owner, ProcessId peer);
  void close(ProcessId owner, ProcessId peer);
  void close_all(ProcessId owner);
  bool is_open(ProcessId owner, ProcessId peer) const;

  /// One-sided write; returns the token that the eventual RdmaAck carries.
  std::uint64_t send_rdma(ProcessId from, ProcessId to, sim::AnyMessage msg);

  /// Synchronously delivers all landed-but-undelivered messages at `owner`.
  void flush(ProcessId owner);

  void add_observer(FabricObserver* obs) { observers_.push_back(obs); }

  /// Installs (or with nullptr removes) a fault-injection hook consulted on
  /// every one-sided write.  A dropped write is rejected: the sender never
  /// receives a NIC completion, as if the switch lost the packet.
  void set_fault_injector(sim::FaultInjector* fi) { fault_ = fi; }

  std::uint64_t writes_sent() const { return writes_sent_; }
  std::uint64_t writes_rejected() const { return writes_rejected_; }

 private:
  struct Endpoint {
    std::function<void(ProcessId, const sim::AnyMessage&)> deliver;
    std::function<void(const RdmaAck&)> ack;
    std::set<ProcessId> open_from;  ///< peers allowed to write here
    /// Connection incarnation per peer, bumped by every open() and close():
    /// models RDMA queue pairs — a write issued against an old incarnation
    /// fails even if a new connection to the same peer exists by the time
    /// it arrives.  The Fig. 4b safety argument relies on this.
    std::map<ProcessId, std::uint64_t> generation;
    /// Landed but not yet polled: (sender, message).
    std::deque<std::pair<ProcessId, sim::AnyMessage>> buffer;
  };

  void land(ProcessId from, ProcessId to, sim::AnyMessage msg, std::uint64_t token,
            std::uint64_t gen_at_send);
  void poll_one(ProcessId owner);

  sim::Simulator& sim_;
  Options options_;
  std::map<ProcessId, Endpoint> endpoints_;
  std::vector<FabricObserver*> observers_;
  sim::FaultInjector* fault_ = nullptr;
  std::uint64_t next_token_ = 1;
  std::uint64_t writes_sent_ = 0;
  std::uint64_t writes_rejected_ = 0;
  /// FIFO per directed pair, like the network.
  std::map<std::uint64_t, Time> channel_clock_;
};

}  // namespace ratc::rdma
