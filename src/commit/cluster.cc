#include "commit/cluster.h"
#include <utility>

#include <cassert>
#include <stdexcept>

#include "recon/cluster_support.h"

namespace ratc::commit {

namespace {
constexpr ProcessId kReplicaBase = 100;
constexpr ProcessId kShardStride = 100;
constexpr ProcessId kSpareOffset = 50;
constexpr ProcessId kClientBase = 5000;
constexpr ProcessId kCtrlBase = 8000;
constexpr ProcessId kCsPid = 9000;
}  // namespace

Cluster::Cluster(Options options)
    : options_(options), sim_(options.seed), shard_map_(options.num_shards) {
  sim::Network::Options nopt = options_.exponential_delays
                                   ? sim::Network::exponential_delay_options(
                                         options_.delay_mean)
                                   : sim::Network::unit_delay_options();
  if (options_.link_delay) {
    nopt.delay = [this](Rng&, ProcessId from, ProcessId to) -> Duration {
      Duration d = options_.link_delay(from, to);
      return d > 0 ? d : 1;
    };
  }
  net_ = std::make_unique<sim::Network>(sim_, nopt);
  certifier_ = tcs::make_certifier(options_.isolation);
  if (options_.enable_monitor) {
    monitor_ = std::make_unique<Monitor>(sim_);
    net_->add_observer(monitor_.get());
  }
  if (options_.enable_tracer) {
    tracer_ = std::make_unique<sim::Tracer>();
    net_->add_observer(tracer_.get());
  }

  // Configuration service.
  std::vector<ProcessId> cs_endpoints;
  if (options_.replicated_cs) {
    configsvc::ReplicatedConfigService::Options ropt;
    ropt.first_pid = kCsPid;
    replicated_cs_ = std::make_unique<configsvc::ReplicatedConfigService>(sim_, *net_, ropt);
    cs_endpoints = replicated_cs_->endpoints();
  } else {
    simple_cs_ = std::make_unique<configsvc::SimpleConfigService>(sim_, *net_, kCsPid);
    sim_.add_process(simple_cs_.get());
    cs_endpoints = {kCsPid};
  }

  // Initial configurations: epoch 1, first shard_size replicas, first is
  // leader.  Pre-activated: with no earlier epoch there is no state to
  // transfer, so the bootstrap skips the probe and NEW_STATE round.
  std::map<ShardId, configsvc::ShardConfig> initial;
  for (ShardId s = 0; s < options_.num_shards; ++s) {
    configsvc::ShardConfig cfg;
    cfg.epoch = 1;
    for (std::size_t i = 0; i < options_.shard_size; ++i) {
      cfg.members.push_back(replica_pid(s, i));
    }
    cfg.leader = cfg.members.front();
    initial[s] = cfg;
    if (simple_cs_) simple_cs_->bootstrap(s, cfg);
    if (replicated_cs_) replicated_cs_->bootstrap(s, cfg);
    if (monitor_) monitor_->register_config(s, cfg);
  }

  zones_ = recon::assign_zones(
      options_.num_zones, options_.num_shards,
      options_.shard_size + options_.spares_per_shard,
      [this](ShardId s, std::size_t i) { return replica_pid(s, i); });

  // Replicas and spares.
  for (ShardId s = 0; s < options_.num_shards; ++s) {
    Replica::Options ropt;
    ropt.shard = s;
    ropt.shard_map = &shard_map_;
    ropt.certifier = certifier_.get();
    ropt.cs_endpoints = cs_endpoints;
    ropt.target_shard_size = options_.shard_size;
    ropt.probe_patience = options_.probe_patience;
    ropt.retry_timeout = options_.retry_timeout;
    ropt.leader_ships_accepts = options_.leader_ships_accepts;
    ropt.check_certifier_index = options_.check_certifier_index;
    ropt.monitor = monitor_.get();
    ropt.placement_policy = options_.placement_policy;
    ropt.placement_context = [this](ShardId shard) {
      return placement_context(shard);
    };
    ropt.allocate_spares = [this](ShardId shard, std::size_t n) {
      return allocate_spares(shard, n);
    };
    ropt.release_spares = [this](ShardId shard,
                                 const std::vector<ProcessId>& spares) {
      release_spares(shard, spares);
    };
    for (std::size_t j = 0; j < options_.spares_per_shard; ++j) {
      free_spares_[s].push_back(replica_pid(s, options_.shard_size + j));
    }
    for (std::size_t i = 0; i < options_.shard_size + options_.spares_per_shard; ++i) {
      ProcessId pid = replica_pid(s, i);
      auto r = std::make_unique<Replica>(sim_, *net_, pid, ropt);
      sim_.add_process(r.get());
      if (monitor_) monitor_->register_replica(r.get());
      if (simple_cs_) simple_cs_->subscribe(pid);
      if (replicated_cs_) replicated_cs_->subscribe(pid);
      if (i < options_.shard_size) {
        Status st = (i == 0) ? Status::kLeader : Status::kFollower;
        r->bootstrap(st, initial);
      } else {
        r->bootstrap_spare(initial);
      }
      replicas_.push_back(std::move(r));
    }
  }

  // Autonomous reconfiguration controllers (src/ctrl/): one per shard,
  // sharing the replicas' fresh-spare pool and subscribed to CONFIG_CHANGE
  // so their member watch lists track the live configuration.
  if (options_.enable_controller) {
    for (ShardId s = 0; s < options_.num_shards; ++s) {
      ctrl::ReconController::Options copt;
      copt.shard = s;
      copt.mode = ctrl::ReconController::Mode::kPerShardCas;
      copt.cs_endpoints = cs_endpoints;
      copt.target_shard_size = options_.shard_size;
      copt.tuning = options_.controller_tuning;
      // One placement knob drives replicas and controllers alike unless the
      // controller tuning pins its own policy.
      if (copt.tuning.policy == nullptr) copt.tuning.policy = options_.placement_policy;
      copt.placement_context = [this](ShardId shard) {
        return placement_context(shard);
      };
      copt.allocate_spares = [this](ShardId shard, std::size_t n) {
        return allocate_spares(shard, n);
      };
      copt.release_spares = [this](ShardId shard,
                                   const std::vector<ProcessId>& spares) {
        release_spares(shard, spares);
      };
      auto c = std::make_unique<ctrl::ReconController>(
          sim_, *net_, kCtrlBase + s, std::move(copt));
      sim_.add_process(c.get());
      if (simple_cs_) simple_cs_->subscribe(c->id());
      if (replicated_cs_) replicated_cs_->subscribe(c->id());
      c->bootstrap(initial.at(s));
      controllers_.push_back(std::move(c));
    }
  }
}

std::vector<ProcessId> Cluster::allocate_spares(ShardId shard, std::size_t n) {
  std::vector<ProcessId> out;
  auto& pool = free_spares_[shard];
  while (!pool.empty() && out.size() < n) {
    out.push_back(pool.front());
    pool.erase(pool.begin());
  }
  return out;
}

void Cluster::release_spares(ShardId shard, const std::vector<ProcessId>& spares) {
  auto& pool = free_spares_[shard];
  pool.insert(pool.end(), spares.begin(), spares.end());
}

std::size_t Cluster::controller_attempts() const {
  std::size_t n = 0;
  for (const auto& c : controllers_) n += c->stats().attempts;
  return n;
}

recon::EngineStats Cluster::engine_stats() const {
  return recon::cluster_engine_stats(replicas_, controllers_);
}

std::string Cluster::spare_ledger_verdict() const {
  return recon::cluster_spare_ledger_verdict(replicas_, controllers_);
}

recon::PlacementContext Cluster::placement_context(ShardId s) const {
  auto pool = free_spares_.find(s);
  return recon::cluster_placement_context(
      s, replicas_, zones_,
      pool == free_spares_.end() ? 0 : pool->second.size());
}

ProcessId Cluster::replica_pid(ShardId s, std::size_t idx) const {
  ProcessId base = kReplicaBase + s * kShardStride;
  return idx < options_.shard_size
             ? base + static_cast<ProcessId>(idx)
             : base + kSpareOffset + static_cast<ProcessId>(idx - options_.shard_size);
}

Replica& Cluster::replica(ShardId s, std::size_t idx) {
  return replica_by_pid(replica_pid(s, idx));
}

Replica& Cluster::replica_by_pid(ProcessId pid) {
  for (auto& r : replicas_) {
    if (r->id() == pid) return *r;
  }
  throw std::out_of_range("no replica with pid " + std::to_string(pid));
}

const Replica& Cluster::replica_by_pid(ProcessId pid) const {
  for (const auto& r : replicas_) {
    if (r->id() == pid) return *r;
  }
  throw std::out_of_range("no replica with pid " + std::to_string(pid));
}

std::vector<ProcessId> Cluster::initial_members(ShardId s) const {
  std::vector<ProcessId> out;
  for (std::size_t i = 0; i < options_.shard_size; ++i) out.push_back(replica_pid(s, i));
  return out;
}

std::vector<ProcessId> Cluster::spares(ShardId s) const {
  std::vector<ProcessId> out;
  for (std::size_t j = 0; j < options_.spares_per_shard; ++j) {
    out.push_back(replica_pid(s, options_.shard_size + j));
  }
  return out;
}

configsvc::ShardConfig Cluster::current_config(ShardId s) const {
  if (simple_cs_) return simple_cs_->last(s);
  // Replicated CS: read any alive server's applied state.
  for (std::size_t i = 0; i < replicated_cs_->num_servers(); ++i) {
    if (!sim_.crashed(replicated_cs_->server(i).id())) {
      return replicated_cs_->server(i).last(s);
    }
  }
  return {};
}

Client& Cluster::add_client() {
  ProcessId pid = kClientBase + static_cast<ProcessId>(clients_.size());
  auto c = std::make_unique<Client>(sim_, *net_, pid, &history_);
  sim_.add_process(c.get());
  clients_.push_back(std::move(c));
  return *clients_.back();
}

bool Cluster::await_active_epoch(ShardId s, Epoch at_least, std::size_t max_events) {
  auto active = [&] {
    configsvc::ShardConfig cfg = current_config(s);
    if (cfg.epoch < at_least) return false;
    for (ProcessId m : cfg.members) {
      const Replica& r = std::as_const(*this).replica_by_pid(m);
      if (sim_.crashed(m) || r.epoch() != cfg.epoch) return false;
    }
    return true;
  };
  return sim_.run_until_pred(active, max_events);
}

std::optional<tcs::Csn> Cluster::snapshot_read(const std::vector<ObjectId>& objects,
                                               Duration staleness_bound,
                                               std::uint64_t member_hint) {
  return commit::serve_snapshot_read(*this, objects, staleness_bound, member_hint);
}

checker::TcsLLResult Cluster::check_tcsll() const {
  if (!monitor_) {
    checker::TcsLLResult r;
    r.ok = false;
    r.errors.push_back("monitor disabled; TCS-LL input unavailable");
    return r;
  }
  checker::TcsLLInput input = monitor_->tcsll_input(history_, shard_map_, *certifier_);
  return checker::check_tcsll(input);
}

std::string Cluster::verify() const {
  std::string problems;
  if (monitor_ && !monitor_->violations().empty()) {
    problems += "invariant violations:\n" + monitor_->violations().summary();
  }
  auto conflicting = history_.conflicting_decisions();
  if (!conflicting.empty()) {
    problems += "conflicting client decisions for " +
                std::to_string(conflicting.size()) + " transaction(s)\n";
  }
  auto tcsll = check_tcsll();
  if (!tcsll.ok) {
    problems += "TCS-LL violations:\n" + tcsll.summary();
  }
  return problems;
}

}  // namespace ratc::commit
