// Construction and operations harness: assembles a full system (shards of
// f+1 replicas plus spares, the configuration service, clients, the
// invariant monitor) and provides failure/reconfiguration helpers.  Used by
// tests, benches and examples.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checker/tcsll.h"
#include "commit/client.h"
#include "commit/monitor.h"
#include "commit/replica.h"
#include "configsvc/replicated_service.h"
#include "configsvc/simple_service.h"
#include "ctrl/recon_controller.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "tcs/certifier.h"
#include "tcs/history.h"
#include "tcs/shard_map.h"

namespace ratc::commit {

class Cluster {
 public:
  struct Options {
    std::uint64_t seed = 1;
    std::uint32_t num_shards = 2;
    std::size_t shard_size = 2;  ///< f+1 replicas per shard
    std::size_t spares_per_shard = 2;
    std::string isolation = "serializability";
    /// Use the 2f+1 Paxos-replicated CS instead of the reliable process.
    bool replicated_cs = false;
    /// Nonzero enables automatic coordinator recovery at replicas.
    Duration retry_timeout = 0;
    Duration probe_patience = 5;
    /// Ablation E14: leader-driven instead of coordinator-delegated
    /// replication of ACCEPTs.
    bool leader_ships_accepts = false;
    /// Exponentially distributed link delays instead of unit delays.
    bool exponential_delays = false;
    double delay_mean = 5.0;
    /// Per-link delay override (wins over the flags above); return 0 for
    /// the default.  Used by benches to model e.g. CPU-inflated messaging.
    std::function<Duration(ProcessId from, ProcessId to)> link_delay;
    bool enable_monitor = true;
    bool enable_tracer = false;
    /// Spawn one autonomous reconfiguration controller per shard
    /// (src/ctrl/): failure-detector-driven healing with no harness levers.
    bool enable_controller = false;
    ctrl::ControllerTuning controller_tuning;
    /// Membership policy consulted by every reconfigurer in the cluster —
    /// replica-driven (Fig. 1) and, unless controller_tuning.policy is set,
    /// the controllers too.  Null selects recon::ReplaceSuspectsPolicy.
    /// Non-owning.
    recon::PlacementPolicy* placement_policy = nullptr;
    /// When nonzero, replicas get synthetic zone labels ("z0".."z<n-1>",
    /// assigned round-robin by per-shard index) surfaced to placement
    /// policies through the PlacementContext.
    std::size_t num_zones = 0;
    /// Debug cross-check: every vote is recomputed with the flat L1/L2 log
    /// scan and the process aborts if the witness index disagrees (see
    /// commit::ReplicaCore::Options).  Meant for tests and sweeps.
    bool check_certifier_index = false;
  };

  explicit Cluster(Options options);

  // --- topology ---------------------------------------------------------------

  std::uint32_t num_shards() const { return options_.num_shards; }
  /// Replica by original position (shard, index); index < shard_size are
  /// initial members, >= shard_size are spares.
  Replica& replica(ShardId s, std::size_t idx);
  Replica& replica_by_pid(ProcessId pid);
  const Replica& replica_by_pid(ProcessId pid) const;
  std::vector<ProcessId> initial_members(ShardId s) const;
  std::vector<ProcessId> spares(ShardId s) const;

  /// Current configuration according to the configuration service.
  configsvc::ShardConfig current_config(ShardId s) const;
  ProcessId leader_of(ShardId s) const { return current_config(s).leader; }

  // --- clients ------------------------------------------------------------------

  Client& add_client();
  Client& client(std::size_t i) { return *clients_[i]; }
  std::size_t num_clients() const { return clients_.size(); }
  TxnId next_txn_id() { return next_txn_++; }

  // --- failure & reconfiguration helpers -----------------------------------------

  void crash(ProcessId pid) { sim_.crash(pid); }
  void crash_leader(ShardId s) { sim_.crash(leader_of(s)); }
  /// Asks `by` to reconfigure shard s (any process can, Fig. 1 line 33).
  void reconfigure(ShardId s, ProcessId by) { replica_by_pid(by).reconfigure(s); }

  /// Runs until the CS stores an epoch >= `at_least` for shard s and that
  /// configuration's members all report the epoch (activation).
  bool await_active_epoch(ShardId s, Epoch at_least, std::size_t max_events = 2'000'000);

  // --- autonomous reconfiguration (src/ctrl/) ---------------------------------

  bool has_controller() const { return !controllers_.empty(); }
  ctrl::ReconController& controller(ShardId s) { return *controllers_.at(s); }
  /// Total reconfiguration attempts started by the controllers.
  std::size_t controller_attempts() const;

  // --- shared reconfigurer core (src/recon/) -----------------------------------

  /// Aggregate recon::Engine counters over every reconfigurer in the
  /// cluster (replicas + controllers).
  recon::EngineStats engine_stats() const;
  /// The spare ledger invariant, checked per engine: every reserved spare
  /// is installed in a stored configuration, released back to the pool, or
  /// still awaiting its CAS outcome.  Empty iff balanced everywhere.
  std::string spare_ledger_verdict() const;
  /// Cluster knowledge handed to placement policies (zones, per-process
  /// load, spare-pool depth).
  recon::PlacementContext placement_context(ShardId s) const;

  // --- infrastructure access -------------------------------------------------------

  sim::Simulator& sim() { return sim_; }
  sim::Network& net() { return *net_; }
  Monitor& monitor() { return *monitor_; }
  sim::Tracer& tracer() { return *tracer_; }
  tcs::History& history() { return history_; }
  const tcs::ShardMap& shard_map() const { return shard_map_; }
  const tcs::Certifier& certifier() const { return *certifier_; }
  const Options& options() const { return options_; }

  // --- read-only snapshot transactions (CSN fast path) -------------------------

  /// Executes a read-only transaction over `objects` at one consistent
  /// snapshot with ZERO certification messages (commit::serve_snapshot_read:
  /// member_hint rotates the serving member, so followers serve too).
  /// Returns the snapshot, or nullopt when the read could not be served.
  std::optional<tcs::Csn> snapshot_read(const std::vector<ObjectId>& objects,
                                        Duration staleness_bound = 0,
                                        std::uint64_t member_hint = 0);

  // --- checking ---------------------------------------------------------------------

  /// Runs the TCS-LL checker (Fig. 6) over the recorded execution.
  checker::TcsLLResult check_tcsll() const;

  /// Combined end-of-run verdict: no monitor violations, no conflicting
  /// client decisions, TCS-LL holds.  Returns a diagnostic on failure.
  std::string verify() const;

 private:
  ProcessId replica_pid(ShardId s, std::size_t idx) const;
  /// Hands out up to n fresh spares for `shard`, permanently consuming them
  /// (global freshness; see ReplicaCore::Options::allocate_spares).  Shared by
  /// replica reconfigurers and the autonomous controllers.
  std::vector<ProcessId> allocate_spares(ShardId shard, std::size_t n);
  /// Returns spares whose proposal never entered a stored configuration.
  void release_spares(ShardId shard, const std::vector<ProcessId>& spares);

  Options options_;
  sim::Simulator sim_;
  std::unique_ptr<sim::Network> net_;
  tcs::ShardMap shard_map_;
  std::unique_ptr<tcs::Certifier> certifier_;
  std::unique_ptr<Monitor> monitor_;
  std::unique_ptr<sim::Tracer> tracer_;
  std::unique_ptr<configsvc::SimpleConfigService> simple_cs_;
  std::unique_ptr<configsvc::ReplicatedConfigService> replicated_cs_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::unique_ptr<ctrl::ReconController>> controllers_;
  std::vector<std::unique_ptr<Client>> clients_;
  /// Never-yet-used spare processes per shard (the "fresh process" pool;
  /// allocation permanently consumes).
  std::map<ShardId, std::vector<ProcessId>> free_spares_;
  /// Synthetic zone labels (num_zones > 0), fixed at construction.
  std::map<ProcessId, std::string> zones_;
  tcs::History history_;
  TxnId next_txn_ = 1;
};

}  // namespace ratc::commit
