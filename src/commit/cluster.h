// Simulator harness for the message-passing protocol: the commit assembly
// (rt::CommitSystem — configuration service, shards of f+1 replicas plus
// spares, the invariant monitor) bound to a SimHost's network, plus the
// Paxos-replicated CS option, the autonomous controllers, the tracer, the
// history-recording clients and the failure/reconfiguration levers.  Used by
// tests, benches and examples.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checker/tcsll.h"
#include "commit/client.h"
#include "commit/monitor.h"
#include "commit/replica.h"
#include "configsvc/replicated_service.h"
#include "ctrl/recon_controller.h"
#include "recon/cluster_support.h"
#include "rt/commit_system.h"

namespace ratc::commit {

class Cluster : public recon::SimHost, public rt::CommitSystem {
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
    /// Membership policy consulted by every reconfigurer in the cluster,
    /// replica-driven (Fig. 1) and controllers alike.  Null selects
    /// recon::ReplaceSuspectsPolicy.  Non-owning.
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

  /// Current configuration according to the configuration service, read
  /// in place from its state.
  const configsvc::ShardConfig& current_config(ShardId s) const;
  ProcessId leader_of(ShardId s) const { return current_config(s).leader; }

  // --- failure & reconfiguration helpers -----------------------------------------

  void crash_leader(ShardId s) { crash(leader_of(s)); }
  /// Asks `by` to reconfigure shard s (any process can, Fig. 1 line 33).
  void reconfigure(ShardId s, ProcessId by) { replica_by_pid(by).reconfigure(s); }

  /// Runs until the CS stores an epoch >= `at_least` for shard s and that
  /// configuration's members all report the epoch (activation).
  bool await_active_epoch(ShardId s, Epoch at_least, std::size_t max_events = 2'000'000);

  Monitor& monitor() { return *monitor_; }
  /// The Paxos-replicated CS, or null when Options::replicated_cs is off.
  configsvc::ReplicatedConfigService* replicated_cs() { return replicated_cs_.get(); }

  // --- read-only snapshot transactions (CSN fast path) -------------------------

  /// Executes a read-only transaction over `objects` at one consistent
  /// snapshot with ZERO certification messages (SimHost::serve_snapshot_read,
  /// served per shard by recon::epoch_current_member: member_hint rotates
  /// the serving member, so followers serve too).  Returns the snapshot, or
  /// nullopt when the read could not be served.
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
  std::unique_ptr<configsvc::ReplicatedConfigService> replicated_cs_;
};

}  // namespace ratc::commit
