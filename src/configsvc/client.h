// Client-side helpers for talking to the configuration service.
//
// A CsClient is embedded in a protocol process.  It matches replies to
// outstanding requests by request id, retries periodically (needed when the
// CS is the Paxos-replicated variant and its leader changes), and sends
// every request to all known CS endpoints (non-leader frontends ignore it).
// This hides whether the CS is the reliable process of Sec. 3's model or a
// 2f+1 replicated service.
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
  CsClient(rt::Runtime& rt, ProcessId owner, std::vector<ProcessId> endpoints,
           Duration retry_every = 50);

  /// compare_and_swap(s, e, <e', M, pl>) — paper Sec. 3.
  void cas(ShardId shard, Epoch expected, ShardConfig next,
           std::function<void(bool)> cb);

  /// get_last(s).
  void get_last(ShardId shard, std::function<void(const ShardConfig&)> cb);

  /// get(s, e).
  void get(ShardId shard, Epoch epoch,
           std::function<void(bool, const ShardConfig&)> cb);

  /// The owner forwards every incoming message here first; returns true if
  /// the message was a CS reply and has been consumed.
  bool handle(const sim::AnyMessage& msg);

 private:
  struct Pending {
    sim::AnyMessage request{0};
    std::function<void(const sim::AnyMessage&)> done;
  };

  RequestId fresh_id() { return (static_cast<RequestId>(owner_) << 32) | next_seq_++; }
  void dispatch(RequestId id, sim::AnyMessage request,
                std::function<void(const sim::AnyMessage&)> done);
  void broadcast(const sim::AnyMessage& request);
  void arm_retry(RequestId id);
  bool complete(RequestId id, const sim::AnyMessage& msg);

  rt::Runtime& rt_;
  ProcessId owner_;
  std::vector<ProcessId> endpoints_;
  Duration retry_every_;
  std::uint32_t next_seq_ = 1;
  std::map<RequestId, Pending> pending_;
};

/// Same pattern for the global configuration service of the RDMA protocol.
class GcsClient {
 public:
  GcsClient(rt::Runtime& rt, ProcessId owner, std::vector<ProcessId> endpoints,
            Duration retry_every = 50);

  void cas(Epoch expected, GlobalConfig next, std::function<void(bool)> cb);
  void get_last(std::function<void(const GlobalConfig&)> cb);
  void get(Epoch epoch, std::function<void(bool, const GlobalConfig&)> cb);

  bool handle(const sim::AnyMessage& msg);

 private:
  struct Pending {
    sim::AnyMessage request{0};
    std::function<void(const sim::AnyMessage&)> done;
  };

  RequestId fresh_id() { return (static_cast<RequestId>(owner_) << 32) | next_seq_++; }
  void dispatch(RequestId id, sim::AnyMessage request,
                std::function<void(const sim::AnyMessage&)> done);
  void broadcast(const sim::AnyMessage& request);
  void arm_retry(RequestId id);
  bool complete(RequestId id, const sim::AnyMessage& msg);

  rt::Runtime& rt_;
  ProcessId owner_;
  std::vector<ProcessId> endpoints_;
  Duration retry_every_;
  std::uint32_t next_seq_ = 1;
  std::map<RequestId, Pending> pending_;
};

}  // namespace ratc::configsvc
