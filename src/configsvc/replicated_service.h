// Paxos-replicated configuration service (paper Sec. 2: "In practice, this
// service may be implemented using Paxos-like replication over 2f+1
// processes out of which at most f can fail, as done in systems such as
// Zookeeper").
//
// Each CS server is a pair of simulated processes: a *frontend* that speaks
// the CS request protocol, and a Paxos replica that sequences commands.
// The frontend whose Paxos replica currently leads wraps incoming requests
// into commands; every server applies the same command sequence to its copy
// of the configuration store; the leader's frontend sends replies and
// CONFIG_CHANGE notifications.  Duplicate submissions (possible across
// leader changes) are absorbed by remembering the reply per request id.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "configsvc/config.h"
#include "configsvc/messages.h"
#include "paxos/replica.h"
#include "sim/network.h"
#include "sim/process.h"

namespace ratc::configsvc {

/// Command replicated through Paxos: the original request plus its origin.
struct CsCommand {
  static constexpr const char* kName = "CS_CMD";
  ProcessId origin = kNoProcess;
  sim::AnyMessage request;
  std::size_t wire_size() const { return 8 + request.wire_size(); }
};

class CsServer : public sim::Process {
 public:
  CsServer(rt::Runtime& rt, ProcessId id);

  void attach_paxos(paxos::PaxosReplica* paxos) { paxos_ = paxos; }
  paxos::PaxosReplica& paxos() { return *paxos_; }

  void bootstrap(ShardId shard, ShardConfig config);
  void subscribe(ProcessId p) { subscribers_.push_back(p); }

  void on_message(ProcessId from, const sim::AnyMessage& msg) override;

  /// Paxos apply upcall.
  void apply(Slot slot, const sim::AnyMessage& cmd);

  const ShardConfig& last(ShardId shard) const;

 private:
  sim::AnyMessage execute(const sim::AnyMessage& request, bool* cas_ok,
                          ShardId* cas_shard);


  paxos::PaxosReplica* paxos_ = nullptr;
  std::map<ShardId, std::map<Epoch, ShardConfig>> configs_;
  std::map<ShardId, Epoch> last_epoch_;
  std::vector<ProcessId> subscribers_;
  /// Reply cache for at-most-once semantics across duplicate submissions.
  std::map<RequestId, sim::AnyMessage> replies_;
};

/// Owns the full 2f+1 server group; a construction/operations convenience
/// for tests and benches.
class ReplicatedConfigService {
 public:
  struct Options {
    std::size_t num_servers = 3;
    /// Process ids: frontends get first_pid..first_pid+n-1, Paxos replicas
    /// the following n ids.
    ProcessId first_pid = 9000;
  };

  ReplicatedConfigService(sim::Simulator& sim, sim::Network& net, Options options);

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
