#include "rdma/cluster.h"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace ratc::rdma {

namespace {

using LinkDelay = std::function<Duration(ProcessId, ProcessId)>;

/// A link delay from the per-link override, 1 tick where it returns 0.
std::function<Duration(Rng&, ProcessId, ProcessId)> delay_from(LinkDelay link) {
  return [link = std::move(link)](Rng&, ProcessId from, ProcessId to) -> Duration {
    Duration d = link ? link(from, to) : 0;
    return d > 0 ? d : 1;
  };
}

sim::Network::Options network_options(const Cluster::Options& o) {
  sim::Network::Options nopt;
  nopt.delay = delay_from(o.link_delay);
  return nopt;
}

}  // namespace

Cluster::Cluster(Options options)
    : SimHost(options.seed, network_options(options)),
      ReplicaCluster(net_.runtime(),
                     {.num_shards = options.num_shards,
                      .shard_size = options.shard_size,
                      .spares_per_shard = options.spares_per_shard,
                      .isolation = options.isolation,
                      .retry_timeout = options.retry_timeout,
                      .probe_patience = options.probe_patience,
                      .check_certifier_index = options.check_certifier_index,
                      .placement_policy = options.placement_policy,
                      .num_zones = options.num_zones,
                      .placement_context = true}),
      mode_(options.mode),
      monitor_(rt_),
      monitor_tap_(monitor_) {
  Fabric::Options fopt;
  fopt.delay = delay_from(options.fabric_delay ? options.fabric_delay : options.link_delay);
  fopt.poll_delay = options.poll_delay;
  fabric_ = std::make_unique<Fabric>(sim_, fopt);
  net_.add_observer(&monitor_tap_);
  fabric_->add_observer(&monitor_tap_);
  if (options.enable_tracer) attach_tracer();

  // Configuration service and initial configuration: epoch 1, the first
  // shard_size replicas of every shard, the first of them leading.
  configsvc::GlobalConfig initial;
  initial.epoch = 1;
  for (ShardId s = 0; s < options.num_shards; ++s) {
    initial.members[s] = initial_members(s);
    initial.leaders[s] = initial.members[s].front();
  }
  cs_ = std::make_unique<configsvc::SimpleConfigService>(rt_, kCsPid);
  rt_.spawn(cs_.get());
  if (mode_ == ReconfigMode::kGlobalSafe) {
    cs_->bootstrap(initial);
  } else {
    for (ShardId s = 0; s < options.num_shards; ++s) cs_->bootstrap(s, initial.shard(s));
  }
  for (ShardId s = 0; s < options.num_shards; ++s) monitor_.register_config(s, initial.shard(s));

  Replica::Options proto;
  proto.cs_endpoints = {kCsPid};
  proto.mode = mode_;
  proto.ablate_flush = options.ablate_flush;
  proto.monitor = &monitor_;
  spawn_replicas(
      proto, initial,
      [this](ProcessId pid, const Replica::Options& o) {
        return std::make_unique<Replica>(rt_, *fabric_, pid, o);
      },
      [this](ProcessId pid) {
        // The strawman's replicas track other shards through CONFIG_CHANGE
        // (Fig. 1 line 67); the global protocol's learn the configuration
        // from CONFIG_PREPARE.
        if (mode_ == ReconfigMode::kPerShardUnsafe) cs_->subscribe(pid);
      });
  // In the unsafe strawman, writes to spares must land too (no connection
  // management at all): open every member->spare path.
  if (mode_ == ReconfigMode::kPerShardUnsafe) {
    std::vector<ProcessId> all;
    for (ShardId s = 0; s < options.num_shards; ++s) {
      for (std::size_t i = 0; i < hosts_per_shard(); ++i) all.push_back(replica_pid(s, i));
    }
    for (ProcessId owner : all) {
      for (ProcessId peer : all) {
        if (owner != peer) fabric_->open(owner, peer);
      }
    }
  }

  // Autonomous reconfiguration controllers (src/ctrl/): watch members, and
  // on suspicion nudge a live replica to run the global reconfiguration
  // (the fabric-side activation steps live in the replicas; see
  // ctrl/messages.h).  Safe global mode only — the unsafe strawman exists
  // to reproduce the Fig. 4a violation, not to be healed.
  if (options.enable_controller) {
    if (mode_ != ReconfigMode::kGlobalSafe) {
      // Replicas drop CTRL_NUDGE outside safe mode; silently spawning
      // controllers would claim autonomous recovery while healing nothing.
      throw std::invalid_argument(
          "enable_controller requires ReconfigMode::kGlobalSafe");
    }
    for (ShardId s = 0; s < options.num_shards; ++s) {
      ctrl::ReconController::Options copt;
      copt.shard = s;
      copt.mode = ctrl::ReconController::Mode::kDelegateGlobal;
      copt.tuning = options.controller_tuning;
      ctrl::ReconController& c = spawn_controller(std::move(copt));
      cs_->subscribe(c.id());
      c.bootstrap_global(initial);
    }
  }
}

const configsvc::ShardConfig& Cluster::current_config(ShardId s) const {
  if (mode_ != ReconfigMode::kGlobalSafe) return cs_->last(s);
  const configsvc::GlobalConfig& global = cs_->last();
  if (shard_views_.empty() || shard_views_.front().epoch != global.epoch) {
    shard_views_.clear();
    for (ShardId k = 0; k < num_shards(); ++k) shard_views_.push_back(global.shard(k));
  }
  return shard_views_.at(s);
}

Epoch Cluster::current_epoch() const {
  assert(mode_ == ReconfigMode::kGlobalSafe);
  return cs_->last().epoch;
}

bool Cluster::await_active_epoch(Epoch at_least, std::size_t max_events) {
  assert(mode_ == ReconfigMode::kGlobalSafe);
  auto active = [&] {
    const configsvc::GlobalConfig& cfg = cs_->last();
    if (cfg.epoch < at_least) return false;
    for (ProcessId m : cfg.all_members()) {
      if (sim_.crashed(m)) return false;
      if (replica_by_pid(m).epoch() != cfg.epoch) return false;
    }
    return true;
  };
  return sim_.run_until_pred(active, max_events);
}

bool Cluster::await_active_shard_epoch(ShardId s, Epoch at_least,
                                       std::size_t max_events) {
  auto active = [&] {
    configsvc::ShardConfig cfg = current_config(s);
    if (cfg.epoch < at_least) return false;
    for (ProcessId m : cfg.members) {
      if (sim_.crashed(m)) return false;
      if (replica_by_pid(m).epoch() != cfg.epoch) return false;
    }
    return true;
  };
  return sim_.run_until_pred(active, max_events);
}

std::optional<tcs::Csn> Cluster::snapshot_read(const std::vector<ObjectId>& objects,
                                               Duration staleness_bound,
                                               std::uint64_t member_hint) {
  return serve_snapshot_read(shard_map(), objects, staleness_bound, [&](ShardId s) {
    return recon::epoch_current_member(*this, s, member_hint);
  });
}

std::string Cluster::verify() const {
  return recon::verify_run(&monitor_, history_, shard_map(), certifier());
}

}  // namespace ratc::rdma
