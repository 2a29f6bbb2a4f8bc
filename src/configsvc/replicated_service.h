// Paxos-replicated configuration service (paper Sec. 2: "In practice, this
// service may be implemented using Paxos-like replication over 2f+1
// processes out of which at most f can fail, as done in systems such as
// Zookeeper").
//
// Each CS server is one process: it speaks the CS request protocol and
// hosts its member of the 2f+1 Paxos group that sequences commands.  The
// server whose replica currently leads wraps incoming requests into
// commands; every server applies the same command sequence to its own Store
// (store.h), whose reply cache absorbs the duplicate submissions that client
// retries and leader changes produce.  The leader sends the change
// notifications and then the reply.
#pragma once

#include <memory>
#include <vector>

#include "configsvc/store.h"
#include "paxos/replica.h"

namespace ratc::configsvc {

/// Command replicated through Paxos: the original request plus its origin.
struct CsCommand {
  static constexpr const char* kName = "CS_CMD";
  ProcessId origin = kNoProcess;
  sim::AnyMessage request;
  std::size_t wire_size() const { return 8 + request.wire_size(); }
};

class CsServer : public Frontend {
 public:
  /// `group` is every CS server's pid, this one's included; its first
  /// member leads initially.
  CsServer(rt::Runtime& rt, ProcessId id, const std::vector<ProcessId>& group);

  paxos::PaxosReplica& paxos() { return paxos_; }

  void on_message(ProcessId from, const sim::AnyMessage& msg) override;

 private:
  /// Paxos apply upcall.
  void apply(Slot slot, const sim::AnyMessage& cmd);

  paxos::PaxosReplica paxos_;
};

/// Owns the full 2f+1 server group (f = 1); a construction/operations
/// convenience for tests and benches.  A server crashes with one
/// Runtime::crash of its pid.
class ReplicatedConfigService {
 public:
  /// Servers get kFirstPid..kFirstPid+2; the first leads initially.
  static constexpr std::size_t kNumServers = 3;
  static constexpr ProcessId kFirstPid = 9000;

  /// Spawns the servers on `rt`.
  explicit ReplicatedConfigService(rt::Runtime& rt);

  /// Server pids — what protocol processes use as CS endpoints.
  std::vector<ProcessId> endpoints() const;

  void bootstrap(ShardId shard, const ShardConfig& config);
  void subscribe(ProcessId p);

  std::size_t num_servers() const { return servers_.size(); }
  CsServer& server(std::size_t i) { return *servers_[i]; }

 private:
  std::vector<std::unique_ptr<CsServer>> servers_;
};

}  // namespace ratc::configsvc
