// The paper's commit stack — configuration service, shards of f+1 replicas
// plus spares, optional invariant monitor — on *any* rt::Runtime: the
// commit-stack instantiation of recon::ReplicaCluster (recon/cluster_support.h),
// so the same assembly runs on rt::ThreadedRuntime's real threads or on the
// deterministic simulator.  commit::Cluster is this assembly bound to a
// simulator's network, plus the replicated-CS option, controllers and the
// harness levers.
//
// The replicas feed the monitor the shared core's events; the caller wires
// the monitor's message tap into the transport's observers
// (ThreadedRuntime::add_observer / sim::Network::add_observer).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "commit/monitor.h"
#include "commit/replica.h"
#include "configsvc/simple_service.h"
#include "recon/cluster_support.h"
#include "rt/runtime.h"

namespace ratc::rt {

class CommitSystem : public recon::ReplicaCluster<commit::Replica> {
 public:
  struct Options {
    std::uint32_t num_shards = 2;
    std::size_t shard_size = 2;  ///< f+1 replicas per shard
    std::size_t spares_per_shard = 0;
    std::string isolation = "serializability";
    /// Nonzero enables automatic coordinator recovery at replicas.
    Duration retry_timeout = 0;
    Duration probe_patience = 5;
    bool enable_monitor = true;
  };

  /// Spawns the CS first, then the replicas (see spawn_replicas for the
  /// order); spawn before the runtime starts.
  CommitSystem(Runtime& rt, Options options);

  /// Initial members of every shard — the processes a load generator may
  /// pick as transaction coordinators.
  std::vector<ProcessId> coordinators() const;

  /// Null when the monitor is disabled.  Thread-safe by construction
  /// (commit::Monitor locks internally); remember to register it as a
  /// transport observer.
  commit::Monitor* monitor() { return monitor_.get(); }

 protected:
  /// The assembly with no process spawned yet: the caller picks the
  /// configuration service and calls spawn().
  CommitSystem(Runtime& rt, const recon::ClusterParams& params, bool enable_monitor);

  /// Bootstraps `cs` (reachable at `cs_endpoints`) with every shard's
  /// pre-activated epoch-1 configuration — the first shard_size replicas,
  /// the first of them leading — then spawns and boots the replicas.
  template <typename Cs>
  void spawn(Cs& cs, std::vector<ProcessId> cs_endpoints, bool leader_ships_accepts);
  /// Spawns the reliable single-process configuration service at kCsPid.
  configsvc::SimpleConfigService& spawn_simple_cs();

  std::unique_ptr<commit::Monitor> monitor_;
  std::unique_ptr<configsvc::SimpleConfigService> simple_cs_;
  std::map<ShardId, configsvc::ShardConfig> initial_;
};

}  // namespace ratc::rt
