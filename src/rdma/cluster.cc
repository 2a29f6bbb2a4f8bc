#include "rdma/cluster.h"

#include <cassert>
#include <stdexcept>

#include "recon/cluster_support.h"

namespace ratc::rdma {

namespace {
constexpr ProcessId kReplicaBase = 100;
constexpr ProcessId kShardStride = 100;
constexpr ProcessId kSpareOffset = 50;
constexpr ProcessId kClientBase = 5000;
constexpr ProcessId kCtrlBase = 8000;
constexpr ProcessId kCsPid = 9000;
}  // namespace

Cluster::Cluster(Options options)
    : options_(std::move(options)), sim_(options_.seed), shard_map_(options_.num_shards) {
  auto delay_fn = [this](Rng&, ProcessId from, ProcessId to) -> Duration {
    if (options_.link_delay) {
      Duration d = options_.link_delay(from, to);
      if (d > 0) return d;
    }
    return 1;
  };
  sim::Network::Options nopt;
  nopt.delay = delay_fn;
  net_ = std::make_unique<sim::Network>(sim_, nopt);
  Fabric::Options fopt;
  if (options_.fabric_delay) {
    fopt.delay = [this](Rng&, ProcessId from, ProcessId to) -> Duration {
      Duration d = options_.fabric_delay(from, to);
      return d > 0 ? d : 1;
    };
  } else {
    fopt.delay = delay_fn;
  }
  fopt.poll_delay = options_.poll_delay;
  fabric_ = std::make_unique<Fabric>(sim_, fopt);
  certifier_ = tcs::make_certifier(options_.isolation);
  monitor_ = std::make_unique<RdmaMonitor>(sim_);
  net_->add_observer(monitor_.get());
  fabric_->add_observer(monitor_.get());
  if (options_.enable_tracer) {
    tracer_ = std::make_unique<sim::Tracer>();
    net_->add_observer(tracer_.get());
  }

  // Configuration service and initial configuration.
  configsvc::GlobalConfig initial;
  initial.epoch = 1;
  for (ShardId s = 0; s < options_.num_shards; ++s) {
    std::vector<ProcessId> members;
    for (std::size_t i = 0; i < options_.shard_size; ++i) {
      members.push_back(replica_pid(s, i));
    }
    initial.members[s] = members;
    initial.leaders[s] = members.front();
  }
  if (options_.mode == ReconfigMode::kGlobalSafe) {
    gcs_ = std::make_unique<configsvc::SimpleGlobalConfigService>(sim_, *net_, kCsPid);
    sim_.add_process(gcs_.get());
    gcs_->bootstrap(initial);
  } else {
    cs_ = std::make_unique<configsvc::SimpleConfigService>(sim_, *net_, kCsPid);
    sim_.add_process(cs_.get());
    for (ShardId s = 0; s < options_.num_shards; ++s) {
      cs_->bootstrap(s, initial.shard(s));
    }
  }
  for (const auto& [s, members] : initial.members) {
    monitor_->register_members(s, initial.epoch, members, initial.leaders.at(s));
  }

  zones_ = recon::assign_zones(
      options_.num_zones, options_.num_shards,
      options_.shard_size + options_.spares_per_shard,
      [this](ShardId s, std::size_t i) { return replica_pid(s, i); });

  for (ShardId s = 0; s < options_.num_shards; ++s) {
    Replica::Options ropt;
    ropt.shard = s;
    ropt.mode = options_.mode;
    ropt.shard_map = &shard_map_;
    ropt.certifier = certifier_.get();
    ropt.cs_endpoints = {kCsPid};
    ropt.target_shard_size = options_.shard_size;
    ropt.probe_patience = options_.probe_patience;
    ropt.retry_timeout = options_.retry_timeout;
    ropt.ablate_flush = options_.ablate_flush;
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
      auto r = std::make_unique<Replica>(sim_, *net_, *fabric_, pid, ropt);
      sim_.add_process(r.get());
      monitor_->register_replica(r.get());
      if (cs_) cs_->subscribe(pid);
      if (i < options_.shard_size) {
        r->bootstrap(i == 0 ? Status::kLeader : Status::kFollower, initial);
      } else {
        r->bootstrap_spare(initial);
      }
      replicas_.push_back(std::move(r));
    }
  }
  // In the unsafe strawman, writes to spares must land too (no connection
  // management at all): open every member->spare path.
  if (options_.mode == ReconfigMode::kPerShardUnsafe) {
    for (auto& owner : replicas_) {
      for (auto& peer : replicas_) {
        if (owner->id() != peer->id()) fabric_->open(owner->id(), peer->id());
      }
    }
  }

  // Autonomous reconfiguration controllers (src/ctrl/): watch members, and
  // on suspicion nudge a live replica to run the global reconfiguration
  // (the fabric-side activation steps live in the replicas; see
  // ctrl/messages.h).  Safe global mode only — the unsafe strawman exists
  // to reproduce the Fig. 4a violation, not to be healed.
  if (options_.enable_controller) {
    if (options_.mode != ReconfigMode::kGlobalSafe) {
      // Replicas drop CTRL_NUDGE outside safe mode; silently spawning
      // controllers would claim autonomous recovery while healing nothing.
      throw std::invalid_argument(
          "enable_controller requires ReconfigMode::kGlobalSafe");
    }
    for (ShardId s = 0; s < options_.num_shards; ++s) {
      ctrl::ReconController::Options copt;
      copt.shard = s;
      copt.mode = ctrl::ReconController::Mode::kDelegateGlobal;
      copt.target_shard_size = options_.shard_size;
      copt.tuning = options_.controller_tuning;
      copt.placement_context = [this](ShardId shard) {
        return placement_context(shard);
      };
      auto c = std::make_unique<ctrl::ReconController>(
          sim_, *net_, kCtrlBase + s, std::move(copt));
      sim_.add_process(c.get());
      gcs_->subscribe(c->id());
      c->bootstrap_global(initial);
      controllers_.push_back(std::move(c));
    }
  }
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
  throw std::out_of_range("no rdma replica with pid " + std::to_string(pid));
}

std::vector<ProcessId> Cluster::spares(ShardId s) const {
  std::vector<ProcessId> out;
  for (std::size_t j = 0; j < options_.spares_per_shard; ++j) {
    out.push_back(replica_pid(s, options_.shard_size + j));
  }
  return out;
}

configsvc::ShardConfig Cluster::current_config(ShardId s) const {
  if (gcs_) return gcs_->last().shard(s);
  return cs_->last(s);
}

Epoch Cluster::current_epoch() const {
  assert(gcs_ != nullptr);
  return gcs_->last().epoch;
}

Client& Cluster::add_client() {
  ProcessId pid = kClientBase + static_cast<ProcessId>(clients_.size());
  auto c = std::make_unique<Client>(sim_, *net_, pid, &history_);
  sim_.add_process(c.get());
  clients_.push_back(std::move(c));
  return *clients_.back();
}

bool Cluster::await_active_epoch(Epoch at_least, std::size_t max_events) {
  assert(options_.mode == ReconfigMode::kGlobalSafe);
  auto active = [&] {
    const configsvc::GlobalConfig& cfg = gcs_->last();
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
  return commit::serve_snapshot_read(*this, objects, staleness_bound, member_hint);
}

std::string Cluster::verify() const {
  std::string problems;
  if (!monitor_->violations().empty()) {
    problems += "invariant violations:\n" + monitor_->violations().summary();
  }
  auto conflicting = history_.conflicting_decisions();
  if (!conflicting.empty()) {
    problems += "conflicting client decisions for " +
                std::to_string(conflicting.size()) + " transaction(s)\n";
  }
  checker::TcsLLInput input =
      monitor_->tcsll_input(history_, shard_map_, *certifier_);
  checker::TcsLLResult tcsll = checker::check_tcsll(input);
  if (!tcsll.ok) {
    problems += "TCS-LL violations:\n" + tcsll.summary();
  }
  return problems;
}

}  // namespace ratc::rdma
