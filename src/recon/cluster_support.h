// One cluster assembly for the replica stacks.  The paper's two protocols
// run on one system model — shards of f+1 replicas, a pool of fresh
// processes to reconfigure onto, an external configuration service — and
// differ only in the data path (messages vs one-sided writes) and in how a
// new configuration is installed (Fig. 1 vs Fig. 8).  ReplicaCluster is that
// system model on any rt::Runtime: the pid layout, shard map and certifier,
// the replicas and their lookups, the spawn -> register -> subscribe ->
// bootstrap sequence, the locked fresh-spare pool, the zones, and the
// reconfigurer introspection over replicas and controllers.
//
//   rt::CommitSystem   the commit stack's instantiation, on the caller's
//                      runtime (threads or simulator);
//   commit::Cluster    that commit assembly on a SimHost's network, plus the
//                      replicated-CS option, controllers and harness levers;
//   rdma::Cluster      the rdma instantiation on a SimHost, plus the fabric,
//                      the monitor's fabric tap and the global or per-shard
//                      CS.
//
// Both stacks use one invariant monitor, commit::Monitor.  A stack supplies
// only what differs: its replica constructor, its monitor tap, its initial
// configuration type and its configuration service.
#pragma once

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "checker/tcsll.h"
#include "commit/client.h"
#include "commit/monitor.h"
#include "ctrl/recon_controller.h"
#include "recon/engine.h"
#include "rt/runtime.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "tcs/certifier.h"
#include "tcs/csn.h"
#include "tcs/history.h"
#include "tcs/shard_map.h"

namespace ratc::recon {

/// The pid layout every replica stack shares, so traces and tests read
/// alike: shard s's members at 100 + 100s + i, its spares at 150 + 100s + j.
struct PidLayout {
  static constexpr ProcessId kReplicaBase = 100;
  static constexpr ProcessId kShardStride = 100;
  static constexpr ProcessId kSpareOffset = 50;
  static constexpr ProcessId kClientBase = 5000;
  static constexpr ProcessId kCtrlBase = 8000;
  static constexpr ProcessId kCsPid = 9000;
};

/// What a stack's wrapper hands the assembly: the topology and the
/// ReplicaCore::Options knobs every stack fills alike.  Each wrapper fills
/// it from its own flat Options; it is not itself a user-facing option set.
struct ClusterParams {
  std::uint32_t num_shards = 2;
  std::size_t shard_size = 2;
  std::size_t spares_per_shard = 0;
  std::string isolation = "serializability";
  Duration retry_timeout = 0;
  Duration probe_patience = 5;
  bool check_certifier_index = false;
  PlacementPolicy* placement_policy = nullptr;
  std::size_t num_zones = 0;
  /// Hand placement policies a PlacementContext.  It reads every replica's
  /// log — a cross-process read the rt::Runtime contract forbids on
  /// threads — so only simulator clusters set it.
  bool placement_context = false;
};

template <typename Replica>
class ReplicaCluster : public PidLayout {
 public:
  ReplicaCluster(const ReplicaCluster&) = delete;
  ReplicaCluster& operator=(const ReplicaCluster&) = delete;

  // --- topology ---------------------------------------------------------------

  /// Replica by original position (shard, index); index < shard_size are
  /// initial members, >= shard_size are spares.
  ProcessId replica_pid(ShardId s, std::size_t idx) const {
    ProcessId base = kReplicaBase + s * kShardStride;
    return idx < params_.shard_size
               ? base + static_cast<ProcessId>(idx)
               : base + kSpareOffset + static_cast<ProcessId>(idx - params_.shard_size);
  }
  Replica& replica(ShardId s, std::size_t idx) { return replica_by_pid(replica_pid(s, idx)); }
  Replica& replica_by_pid(ProcessId pid) {
    return const_cast<Replica&>(std::as_const(*this).replica_by_pid(pid));
  }
  /// Found from the pid layout: replicas_ is shard-major, members before
  /// spares, as spawn_replicas creates them.
  const Replica& replica_by_pid(ProcessId pid) const {
    if (pid >= kReplicaBase) {
      std::size_t shard = (pid - kReplicaBase) / kShardStride;
      std::size_t offset = (pid - kReplicaBase) % kShardStride;
      std::size_t idx = offset < kSpareOffset ? offset
                                              : params_.shard_size + (offset - kSpareOffset);
      std::size_t i = shard * hosts_per_shard() + idx;
      if (i < replicas_.size() && replicas_[i]->id() == pid) return *replicas_[i];
    }
    throw std::out_of_range("no replica with pid " + std::to_string(pid));
  }
  std::vector<ProcessId> initial_members(ShardId s) const { return pids(s, 0, params_.shard_size); }
  std::vector<ProcessId> spares(ShardId s) const {
    return pids(s, params_.shard_size, params_.spares_per_shard);
  }
  const tcs::ShardMap& shard_map() const { return shard_map_; }
  const tcs::Certifier& certifier() const { return *certifier_; }

  // --- reconfigurers: replicas (Fig. 1 / Fig. 8) and controllers (src/ctrl/) --

  ctrl::ReconController& controller(ShardId s) { return *controllers_.at(s); }
  /// Total reconfiguration attempts started by the controllers.
  std::size_t controller_attempts() const {
    std::size_t n = 0;
    for (const auto& c : controllers_) n += c->stats().attempts;
    return n;
  }
  /// Aggregate recon::Engine counters over every reconfigurer.
  EngineStats engine_stats() const {
    EngineStats total;
    for (const auto& r : replicas_) total.accumulate(r->recon_engine().stats());
    for (const auto& c : controllers_) total.accumulate(c->engine().stats());
    return total;
  }
  /// The spare ledger invariant, checked per engine: every reserved spare
  /// is installed in a stored configuration, released back to the pool, or
  /// still awaiting its CAS outcome.  Empty iff balanced everywhere.
  std::string spare_ledger_verdict() const {
    std::string out;
    for (const auto& r : replicas_) append_ledger_verdict(r->recon_engine(), r->name(), out);
    for (const auto& c : controllers_) append_ledger_verdict(c->engine(), c->name(), out);
    return out;
  }
  /// Cluster knowledge handed to placement policies: zones, per-process load
  /// (certification-log length, the load proxy this simulation can measure)
  /// and spare-pool depth.
  PlacementContext placement_context(ShardId s) const {
    PlacementContext ctx;
    {
      std::lock_guard<std::mutex> lock(spares_mu_);
      auto pool = free_spares_.find(s);
      ctx.spare_pool = pool == free_spares_.end() ? 0 : pool->second.size();
    }
    for (const auto& r : replicas_) {
      if (r->shard() != s) continue;
      ctx.load[r->id()] = r->log().max_filled();
      auto z = zones_.find(r->id());
      if (z != zones_.end()) ctx.zones[r->id()] = z->second;
    }
    return ctx;
  }

 protected:
  ReplicaCluster(rt::Runtime& rt, ClusterParams params)
      : rt_(rt),
        params_(std::move(params)),
        shard_map_(params_.num_shards),
        certifier_(tcs::make_certifier(params_.isolation)) {
    for (ShardId s = 0; s < params_.num_shards; ++s) {
      for (std::size_t j = 0; j < params_.spares_per_shard; ++j) {
        free_spares_[s].push_back(replica_pid(s, params_.shard_size + j));
      }
      // Synthetic zone labels "z<idx % num_zones>", round-robin by per-shard
      // index, so initial members and the spare pool both span the domains.
      for (std::size_t i = 0; params_.num_zones > 0 && i < hosts_per_shard(); ++i) {
        zones_[replica_pid(s, i)] = "z" + std::to_string(i % params_.num_zones);
      }
    }
  }

  std::uint32_t num_shards() const { return params_.num_shards; }
  std::size_t hosts_per_shard() const { return params_.shard_size + params_.spares_per_shard; }

  /// Creates every shard's members and spares, spawns and boots them.
  /// `proto` carries the stack's own Options fields, its cs_endpoints and its
  /// monitor; the assembly fills the shared ones.  `make(pid, options)`
  /// constructs one replica; `subscribe(pid)` registers it for the CS's
  /// CONFIG_CHANGE fan-out (a no-op where the CS pushes nothing).
  template <typename Initial, typename Make, typename Subscribe>
  void spawn_replicas(typename Replica::Options proto, const Initial& initial, Make make,
                      Subscribe subscribe) {
    proto.shard_map = &shard_map_;
    proto.certifier = certifier_.get();
    proto.target_shard_size = params_.shard_size;
    proto.probe_patience = params_.probe_patience;
    proto.retry_timeout = params_.retry_timeout;
    proto.check_certifier_index = params_.check_certifier_index;
    proto.placement_policy = params_.placement_policy;
    if (params_.placement_context) {
      proto.placement_context = [this](ShardId s) { return placement_context(s); };
    }
    share_spare_pool(proto);
    for (ShardId s = 0; s < num_shards(); ++s) {
      proto.shard = s;
      for (std::size_t i = 0; i < hosts_per_shard(); ++i) {
        replicas_.push_back(make(replica_pid(s, i), proto));
      }
    }
    // Spawn index-major (all leaders, then the first followers, ...): the
    // threaded runtime pins processes round-robin in spawn order, and the
    // shard leaders are the hot certification processes — shard-major order
    // would stack every leader on the same worker whenever the per-shard
    // replica count divides the worker count.  The simulator ignores order.
    for (std::size_t i = 0; i < hosts_per_shard(); ++i) {
      for (ShardId s = 0; s < num_shards(); ++s) {
        rt_.spawn(replicas_[s * hosts_per_shard() + i].get());
      }
    }
    // Shard-major: subscription order is the CS's CONFIG_CHANGE fan-out
    // order, and bootstrap arms the retry timer (event sequence numbers).
    // Pre-activated initial members: with no earlier epoch there is no
    // state to transfer, so the bootstrap skips the probe and NEW_STATE.
    for (ShardId s = 0; s < num_shards(); ++s) {
      for (std::size_t i = 0; i < hosts_per_shard(); ++i) {
        Replica& r = *replicas_[s * hosts_per_shard() + i];
        if (proto.monitor != nullptr) proto.monitor->register_replica(&r);
        subscribe(r.id());
        if (i < params_.shard_size) {
          r.bootstrap(i == 0 ? commit::Status::kLeader : commit::Status::kFollower, initial);
        } else {
          r.bootstrap_spare(initial);
        }
      }
    }
  }

  /// Spawns shard `copt.shard`'s autonomous controller at kCtrlBase + shard.
  /// Per-shard CAS controllers reserve spares from the replicas' pool;
  /// delegating ones leave that to the replicas they nudge.
  ctrl::ReconController& spawn_controller(ctrl::ReconController::Options copt) {
    copt.target_shard_size = params_.shard_size;
    copt.placement_policy = params_.placement_policy;
    copt.placement_context = [this](ShardId s) { return placement_context(s); };
    if (copt.mode == ctrl::ReconController::Mode::kPerShardCas) share_spare_pool(copt);
    ProcessId pid = kCtrlBase + copt.shard;
    controllers_.push_back(std::make_unique<ctrl::ReconController>(rt_, pid, std::move(copt)));
    rt_.spawn(controllers_.back().get());
    return *controllers_.back();
  }

  rt::Runtime& rt_;

 private:
  std::vector<ProcessId> pids(ShardId s, std::size_t from, std::size_t n) const {
    std::vector<ProcessId> out;
    for (std::size_t i = from; i < from + n; ++i) out.push_back(replica_pid(s, i));
    return out;
  }

  /// Points a reconfigurer's spare hooks at the pool.
  template <typename ReconfigurerOptions>
  void share_spare_pool(ReconfigurerOptions& o) {
    o.allocate_spares = [this](ShardId s, std::size_t n) { return allocate_spares(s, n); };
    o.release_spares = [this](ShardId s, const std::vector<ProcessId>& spares) {
      release_spares(s, spares);
    };
  }

  /// Hands out up to n fresh spares for `shard`, permanently consuming them
  /// (global freshness; see ReplicaCore::Options::allocate_spares).  Locked:
  /// a reconfiguration may run on any worker of a threaded runtime.
  std::vector<ProcessId> allocate_spares(ShardId shard, std::size_t n) {
    std::lock_guard<std::mutex> lock(spares_mu_);
    std::vector<ProcessId> out;
    auto& pool = free_spares_[shard];
    while (!pool.empty() && out.size() < n) {
      out.push_back(pool.front());
      pool.erase(pool.begin());
    }
    return out;
  }
  /// Returns spares whose proposal never entered a stored configuration.
  void release_spares(ShardId shard, const std::vector<ProcessId>& spares) {
    std::lock_guard<std::mutex> lock(spares_mu_);
    auto& pool = free_spares_[shard];
    pool.insert(pool.end(), spares.begin(), spares.end());
  }

  static void append_ledger_verdict(const Engine& e, const std::string& who, std::string& out) {
    if (e.ledger_balanced()) return;
    const EngineStats& s = e.stats();
    out += "spare ledger unbalanced at " + who + ": reserved " +
           std::to_string(s.spares_reserved) + " != installed " +
           std::to_string(s.spares_installed) + " + released " +
           std::to_string(s.spares_released) + " + pending " +
           std::to_string(e.spares_pending()) + "\n";
  }

  const ClusterParams params_;
  tcs::ShardMap shard_map_;
  std::unique_ptr<tcs::Certifier> certifier_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::unique_ptr<ctrl::ReconController>> controllers_;
  /// Never-yet-used spare processes per shard (the "fresh process" pool).
  mutable std::mutex spares_mu_;
  std::map<ShardId, std::vector<ProcessId>> free_spares_;
  /// Synthetic zone labels (num_zones > 0), fixed at construction.
  std::map<ProcessId, std::string> zones_;
};

/// The simulator half of a simulator cluster, for all three stacks: the
/// Simulator and its Network, the optional tracer, the history-recording
/// clients and the snapshot-read routine.  A simulator cluster lists it as
/// its first base, because a base is constructed before the next one and the
/// assembly binds to net().runtime().
class SimHost {
 public:
  sim::Simulator& sim() { return sim_; }
  sim::Network& net() { return net_; }
  sim::Tracer& tracer() { return *tracer_; }
  tcs::History& history() { return history_; }
  void crash(ProcessId pid) { sim_.crash(pid); }

  /// Spawns a client recording into history(); remote or co-located.
  commit::Client& add_client() {
    ProcessId pid = PidLayout::kClientBase + static_cast<ProcessId>(clients_.size());
    clients_.push_back(std::make_unique<commit::Client>(net_.runtime(), pid, &history_));
    sim_.add_process(clients_.back().get());
    return *clients_.back();
  }
  TxnId next_txn_id() { return next_txn_++; }

  /// A read-only transaction over `objects` at one consistent snapshot with
  /// ZERO certification messages, for any stack: `serving(s)` names the
  /// server that serves involved shard s (null: none may), the snapshot is
  /// the minimum of their CSN watermarks, and every object resolves locally
  /// from its server's multi-version store.  Served reads are recorded in
  /// history() for checker::check_snapshot_reads.  Returns the snapshot, or
  /// nullopt when the read could not be served: no server for some shard,
  /// version history truncated below the snapshot, or — with
  /// staleness_bound > 0 — the snapshot lagging `now` by more than the bound.
  template <typename Serving>
  std::optional<tcs::Csn> serve_snapshot_read(const tcs::ShardMap& shard_map,
                                              const std::vector<ObjectId>& objects,
                                              Duration staleness_bound, Serving serving) {
    if (objects.empty()) return std::nullopt;
    Time now = sim_.now();
    // The involved shards and their servers, in first-use order; a read
    // set of up to kInlineShards objects keeps them on the stack.
    struct Served {
      ShardId shard;
      decltype(serving(ShardId{})) server;
    };
    constexpr std::size_t kInlineShards = 8;
    std::array<Served, kInlineShards> inline_servers;
    std::vector<Served> spilled;
    std::span<Served> servers(inline_servers);
    if (objects.size() > kInlineShards) {
      spilled.resize(objects.size());
      servers = spilled;
    }
    std::size_t involved = 0;
    auto server_of = [&](ShardId s) -> Served* {
      for (std::size_t i = 0; i < involved; ++i) {
        if (servers[i].shard == s) return &servers[i];
      }
      return nullptr;
    };
    tcs::Csn snapshot = tcs::watermark_at(now);
    for (ObjectId o : objects) {
      ShardId s = shard_map.shard_of(o);
      if (server_of(s) != nullptr) continue;
      auto pick = serving(s);
      if (pick == nullptr) return std::nullopt;
      servers[involved++] = {s, pick};
      snapshot = std::min(snapshot, pick->read_watermark());
    }
    if (staleness_bound > 0 && snapshot.ts + staleness_bound < now) {
      return std::nullopt;  // lagging beyond the caller's bound
    }
    tcs::SnapshotReadRecord rec;
    rec.time = now;
    rec.snapshot = snapshot;
    rec.staleness_bound = staleness_bound;
    rec.observations.reserve(objects.size());
    for (ObjectId o : objects) {
      std::optional<store::VersionedValue> v =
          server_of(shard_map.shard_of(o))->server->snapshot_store().read_at(o, snapshot);
      if (!v) return std::nullopt;  // version history truncated below snapshot
      rec.observations.push_back({o, v->version, v->value});
    }
    history_.record_snapshot_read(std::move(rec));
    return snapshot;
  }

 protected:
  SimHost(std::uint64_t seed, sim::Network::Options nopt)
      : sim_(seed), net_(sim_, std::move(nopt)) {}

  /// Taps the network with a tracer.
  void attach_tracer() {
    tracer_ = std::make_unique<sim::Tracer>();
    net_.add_observer(tracer_.get());
  }

  sim::Simulator sim_;
  sim::Network net_;
  std::unique_ptr<sim::Tracer> tracer_;
  tcs::History history_;

 private:
  std::vector<std::unique_ptr<commit::Client>> clients_;
  TxnId next_txn_ = 1;
};

/// The member that serves a replica stack's snapshot reads of shard s: one
/// that is alive and holds the authoritative epoch (the gate coordinators
/// pass; a replica mid state transfer reports the old epoch and is
/// skipped), searched from `member_hint` on, so rotating the hint lets
/// followers serve too.  Null when no member qualifies.
template <typename Cluster>
const commit::ReplicaCore* epoch_current_member(Cluster& cluster, ShardId s,
                                                std::uint64_t member_hint) {
  const configsvc::ShardConfig& cfg = cluster.current_config(s);
  for (std::size_t i = 0; i < cfg.members.size(); ++i) {
    ProcessId pid = cfg.members[(member_hint + i) % cfg.members.size()];
    if (cluster.sim().crashed(pid)) continue;
    const commit::ReplicaCore& r = cluster.replica_by_pid(pid);
    if (r.epoch() == cfg.epoch) return &r;
  }
  return nullptr;
}

/// Runs the TCS-LL checker (Fig. 6) over a recorded execution, fed by a
/// stack's monitor (null: the input is unavailable, reported as a failure).
inline checker::TcsLLResult check_tcsll(const commit::Monitor* monitor,
                                        const tcs::History& history,
                                        const tcs::ShardMap& shard_map,
                                        const tcs::Certifier& certifier) {
  if (monitor == nullptr) {
    checker::TcsLLResult r;
    r.ok = false;
    r.errors.push_back("monitor disabled; TCS-LL input unavailable");
    return r;
  }
  return checker::check_tcsll(monitor->tcsll_input(history, shard_map, certifier));
}

/// A replica stack's end-of-run verdict: no monitor violations, no
/// conflicting client decisions, TCS-LL holds.  Empty iff all hold.
inline std::string verify_run(const commit::Monitor* monitor, const tcs::History& history,
                              const tcs::ShardMap& shard_map,
                              const tcs::Certifier& certifier) {
  std::string problems;
  if (monitor != nullptr && !monitor->violations().empty()) {
    problems += "invariant violations:\n" + monitor->violations().summary();
  }
  auto conflicting = history.conflicting_decisions();
  if (!conflicting.empty()) {
    problems += "conflicting client decisions for " + std::to_string(conflicting.size()) +
                " transaction(s)\n";
  }
  auto tcsll = check_tcsll(monitor, history, shard_map, certifier);
  if (!tcsll.ok) problems += "TCS-LL violations:\n" + tcsll.summary();
  return problems;
}

}  // namespace ratc::recon
