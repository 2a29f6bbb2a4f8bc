// The one client of the configuration service.
//
// A CsClient is embedded in a protocol process and speaks both interfaces:
// the per-shard compare_and_swap / get_last / get of Sec. 3, and the global
// ones of the RDMA protocol (Sec. 5), which drop the shard argument.  It
// matches replies to outstanding requests by request id, re-sends every
// pending request each kRetryEvery ticks (needed when the CS is the
// Paxos-replicated variant and its leader changes, or when a reply is
// lost), and sends every request to all known CS endpoints (non-leader
// frontends ignore it).  The store answers a retried request with its first
// reply, so a callback fires exactly once, with the outcome of the one
// execution.  This hides whether the CS is the reliable process of Sec. 3's
// model or a 2f+1 replicated service.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "configsvc/config.h"
#include "configsvc/messages.h"
#include "rt/runtime.h"
#include "sim/message.h"

namespace ratc::configsvc {

class CsClient {
 public:
  /// How long a request waits for its reply before it is re-sent.
  static constexpr Duration kRetryEvery = 50;

  CsClient(rt::Runtime& rt, ProcessId owner, std::vector<ProcessId> endpoints)
      : rt_(rt), owner_(owner), endpoints_(std::move(endpoints)) {}

  // --- per-shard interface (Sec. 3) -------------------------------------------

  /// compare_and_swap(s, e, <e', M, pl>).
  void cas(ShardId shard, Epoch expected, ShardConfig next, std::function<void(bool)> cb);
  /// get_last(s).
  void get_last(ShardId shard, std::function<void(const ShardConfig&)> cb);
  /// get(s, e).
  void get(ShardId shard, Epoch epoch, std::function<void(bool, const ShardConfig&)> cb);

  // --- global interface (Sec. 5) ----------------------------------------------

  void cas(Epoch expected, GlobalConfig next, std::function<void(bool)> cb);
  void get_last(std::function<void(const GlobalConfig&)> cb);
  void get(Epoch epoch, std::function<void(bool, const GlobalConfig&)> cb);

  /// The owner forwards every incoming message here first; returns true if
  /// the message was a CS reply and has been consumed.
  bool handle(const sim::AnyMessage& msg);

 private:
  struct Pending {
    sim::AnyMessage request;
    std::function<void(const sim::AnyMessage&)> done;
  };

  /// Stamps `request` with a fresh id, sends it and keeps re-sending it
  /// until its Reply arrives, which is handed to `done`.
  template <typename Reply, typename Request, typename Done>
  void call(Request request, Done done);
  void broadcast(const sim::AnyMessage& request);
  void arm_retry(RequestId id);

  rt::Runtime& rt_;
  ProcessId owner_;
  std::vector<ProcessId> endpoints_;
  std::uint32_t next_seq_ = 1;
  std::map<RequestId, Pending> pending_;
};

}  // namespace ratc::configsvc
