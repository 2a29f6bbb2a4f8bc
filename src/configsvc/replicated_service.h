// Paxos-replicated configuration service (paper Sec. 2: "In practice, this
// service may be implemented using Paxos-like replication over 2f+1
// processes out of which at most f can fail, as done in systems such as
// Zookeeper").
//
// Each CS server is a pair of simulated processes: a *frontend* that speaks
// the CS request protocol, and a Paxos replica that sequences commands.
// The frontend whose Paxos replica currently leads wraps incoming requests
// into commands; every server applies the same command sequence to its own
// Store (store.h), whose reply cache absorbs the duplicate submissions that
// client retries and leader changes produce.  The leader's frontend sends
// the change notifications and then the reply.
#pragma once

#include <memory>
#include <vector>

#include "configsvc/store.h"
#include "paxos/replica.h"
#include "sim/network.h"

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
  CsServer(rt::Runtime& rt, ProcessId id)
      : Frontend(rt, id, "cs-frontend" + std::to_string(id)) {}

  void attach_paxos(paxos::PaxosReplica* paxos) { paxos_ = paxos; }
  paxos::PaxosReplica& paxos() { return *paxos_; }

  void on_message(ProcessId from, const sim::AnyMessage& msg) override;

  /// Paxos apply upcall.
  void apply(Slot slot, const sim::AnyMessage& cmd);

 private:
  paxos::PaxosReplica* paxos_ = nullptr;
};

/// Owns the full 2f+1 server group (f = 1); a construction/operations
/// convenience for tests and benches.
class ReplicatedConfigService {
 public:
  /// Frontends get kFirstPid..kFirstPid+2, the Paxos replicas the next three
  /// ids.
  static constexpr std::size_t kNumServers = 3;
  static constexpr ProcessId kFirstPid = 9000;

  ReplicatedConfigService(sim::Simulator& sim, sim::Network& net);

  /// Frontend process ids — what protocol processes use as CS endpoints.
  std::vector<ProcessId> endpoints() const;

  void bootstrap(ShardId shard, const ShardConfig& config);
  void subscribe(ProcessId p);

  std::size_t num_servers() const { return servers_.size(); }
  CsServer& server(std::size_t i) { return *servers_[i]; }
  paxos::PaxosReplica& paxos(std::size_t i) { return *paxoses_[i]; }

  /// Crashes server i (frontend and Paxos replica).
  void crash_server(sim::Simulator& sim, std::size_t i);

 private:
  std::vector<std::unique_ptr<CsServer>> servers_;
  std::vector<std::unique_ptr<paxos::PaxosReplica>> paxoses_;
};

}  // namespace ratc::configsvc
