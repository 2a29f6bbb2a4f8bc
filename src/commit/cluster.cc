#include "commit/cluster.h"

#include <utility>

namespace ratc::commit {

namespace {

sim::Network::Options network_options(const Cluster::Options& o) {
  sim::Network::Options nopt = o.exponential_delays
                                   ? sim::Network::exponential_delay_options(o.delay_mean)
                                   : sim::Network::unit_delay_options();
  if (o.link_delay) {
    nopt.delay = [link = o.link_delay](Rng&, ProcessId from, ProcessId to) -> Duration {
      Duration d = link(from, to);
      return d > 0 ? d : 1;
    };
  }
  return nopt;
}

}  // namespace

Cluster::Cluster(Options options)
    : SimHost(options.seed, network_options(options)),
      CommitSystem(net_.runtime(),
                   {.num_shards = options.num_shards,
                    .shard_size = options.shard_size,
                    .spares_per_shard = options.spares_per_shard,
                    .isolation = options.isolation,
                    .retry_timeout = options.retry_timeout,
                    .probe_patience = options.probe_patience,
                    .check_certifier_index = options.check_certifier_index,
                    .placement_policy = options.placement_policy,
                    .num_zones = options.num_zones,
                    .placement_context = true},
                   options.enable_monitor) {
  if (monitor_) net_.add_observer(monitor_.get());
  if (options.enable_tracer) attach_tracer();

  std::vector<ProcessId> cs_endpoints;
  if (options.replicated_cs) {
    static_assert(configsvc::ReplicatedConfigService::kFirstPid == kCsPid);
    replicated_cs_ = std::make_unique<configsvc::ReplicatedConfigService>(net_.runtime());
    cs_endpoints = replicated_cs_->endpoints();
    spawn(*replicated_cs_, cs_endpoints, options.leader_ships_accepts);
  } else {
    cs_endpoints = {kCsPid};
    spawn(spawn_simple_cs(), cs_endpoints, options.leader_ships_accepts);
  }

  // Autonomous reconfiguration controllers (src/ctrl/): one per shard,
  // sharing the replicas' fresh-spare pool and subscribed to CONFIG_CHANGE
  // so their member watch lists track the live configuration.
  if (options.enable_controller) {
    for (ShardId s = 0; s < options.num_shards; ++s) {
      ctrl::ReconController::Options copt;
      copt.shard = s;
      copt.mode = ctrl::ReconController::Mode::kPerShardCas;
      copt.cs_endpoints = cs_endpoints;
      copt.tuning = options.controller_tuning;
      ctrl::ReconController& c = spawn_controller(std::move(copt));
      if (simple_cs_) simple_cs_->subscribe(c.id());
      if (replicated_cs_) replicated_cs_->subscribe(c.id());
      c.bootstrap(initial_.at(s));
    }
  }
}

const configsvc::ShardConfig& Cluster::current_config(ShardId s) const {
  if (simple_cs_) return simple_cs_->last(s);
  // Replicated CS: read any alive server's applied state.
  for (std::size_t i = 0; i < replicated_cs_->num_servers(); ++i) {
    if (!sim_.crashed(replicated_cs_->server(i).id())) {
      return replicated_cs_->server(i).last(s);
    }
  }
  static const configsvc::ShardConfig kNone;
  return kNone;
}

bool Cluster::await_active_epoch(ShardId s, Epoch at_least, std::size_t max_events) {
  auto active = [&] {
    configsvc::ShardConfig cfg = current_config(s);
    if (cfg.epoch < at_least) return false;
    for (ProcessId m : cfg.members) {
      if (sim_.crashed(m) || replica_by_pid(m).epoch() != cfg.epoch) return false;
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

checker::TcsLLResult Cluster::check_tcsll() const {
  return recon::check_tcsll(monitor_.get(), history_, shard_map(), certifier());
}

std::string Cluster::verify() const {
  return recon::verify_run(monitor_.get(), history_, shard_map(), certifier());
}

}  // namespace ratc::commit
