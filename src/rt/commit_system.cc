#include "rt/commit_system.h"

#include "configsvc/replicated_service.h"

namespace ratc::rt {

CommitSystem::CommitSystem(Runtime& rt, Options options)
    : CommitSystem(rt,
                   {.num_shards = options.num_shards,
                    .shard_size = options.shard_size,
                    .spares_per_shard = options.spares_per_shard,
                    .isolation = options.isolation,
                    .retry_timeout = options.retry_timeout,
                    .probe_patience = options.probe_patience},
                   options.enable_monitor) {
  spawn(spawn_simple_cs(), {kCsPid}, false);
}

CommitSystem::CommitSystem(Runtime& rt, const recon::ClusterParams& params,
                           bool enable_monitor)
    : ReplicaCluster(rt, params) {
  if (enable_monitor) monitor_ = std::make_unique<commit::Monitor>(rt_);
}

configsvc::SimpleConfigService& CommitSystem::spawn_simple_cs() {
  simple_cs_ = std::make_unique<configsvc::SimpleConfigService>(rt_, kCsPid);
  rt_.spawn(simple_cs_.get());
  return *simple_cs_;
}

template <typename Cs>
void CommitSystem::spawn(Cs& cs, std::vector<ProcessId> cs_endpoints,
                         bool leader_ships_accepts) {
  for (ShardId s = 0; s < num_shards(); ++s) {
    configsvc::ShardConfig cfg;
    cfg.epoch = 1;
    cfg.members = initial_members(s);
    cfg.leader = cfg.members.front();
    initial_[s] = cfg;
    cs.bootstrap(s, cfg);
    if (monitor_) monitor_->register_config(s, cfg);
  }
  commit::Replica::Options proto;
  proto.cs_endpoints = std::move(cs_endpoints);
  proto.leader_ships_accepts = leader_ships_accepts;
  proto.monitor = monitor_.get();
  spawn_replicas(
      proto, initial_,
      [this](ProcessId pid, const commit::Replica::Options& o) {
        return std::make_unique<commit::Replica>(rt_, pid, o);
      },
      [&cs](ProcessId pid) { cs.subscribe(pid); });
}

template void CommitSystem::spawn(configsvc::SimpleConfigService&, std::vector<ProcessId>,
                                  bool);
template void CommitSystem::spawn(configsvc::ReplicatedConfigService&,
                                  std::vector<ProcessId>, bool);

std::vector<ProcessId> CommitSystem::coordinators() const {
  std::vector<ProcessId> out;
  for (ShardId s = 0; s < num_shards(); ++s) {
    for (ProcessId pid : initial_members(s)) out.push_back(pid);
  }
  return out;
}

}  // namespace ratc::rt
