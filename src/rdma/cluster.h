// Simulator harness for the RDMA-based protocol: the rdma instantiation of
// recon::ReplicaCluster (recon/cluster_support.h) on a SimHost — shards of
// f+1 replicas plus spares, the history-recording clients — plus the
// simulated RDMA fabric, the invariant monitor (commit::Monitor, tapped
// through rdma::MonitorTap), and the configuration service, used through
// its global interface (safe mode) or its per-shard one (unsafe strawman
// mode), with its levers.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "commit/monitor.h"
#include "configsvc/simple_service.h"
#include "ctrl/recon_controller.h"
#include "rdma/fabric.h"
#include "rdma/monitor_tap.h"
#include "rdma/replica.h"
#include "recon/cluster_support.h"

namespace ratc::rdma {

class Cluster : public recon::SimHost, public recon::ReplicaCluster<Replica> {
 public:
  struct Options {
    std::uint64_t seed = 1;
    std::uint32_t num_shards = 2;
    std::size_t shard_size = 2;
    std::size_t spares_per_shard = 2;
    std::string isolation = "serializability";
    ReconfigMode mode = ReconfigMode::kGlobalSafe;
    Duration retry_timeout = 0;
    Duration probe_patience = 5;
    /// Optional per-link delay override (network, and fabric unless
    /// fabric_delay is set); return 0 to use the default of 1 tick.  Used
    /// to orchestrate the Fig. 4a race.
    std::function<Duration(ProcessId from, ProcessId to)> link_delay;
    /// Separate delay for one-sided RDMA operations (writes and NIC acks).
    /// Lets benches model two-sided messaging paying a CPU cost that
    /// one-sided writes avoid (experiment E9).
    std::function<Duration(ProcessId from, ProcessId to)> fabric_delay;
    /// Delay between a write landing and the receiver's CPU polling it.
    Duration poll_delay = 1;
    /// Test-only ablation of the NEW_CONFIG flush (Fig. 8 line 142).
    bool ablate_flush = false;
    bool enable_tracer = false;
    /// Spawn one autonomous reconfiguration controller per shard
    /// (src/ctrl/); safe global mode only.  The controllers delegate
    /// execution to replicas via CTRL_NUDGE (see ctrl/messages.h).
    bool enable_controller = false;
    ctrl::ControllerTuning controller_tuning;
    /// Membership policy for every reconfigurer (the replicas running the
    /// global protocol, and the unsafe strawman's per-shard one).  Null
    /// selects recon::ReplaceSuspectsPolicy.  Non-owning.
    recon::PlacementPolicy* placement_policy = nullptr;
    /// Synthetic zone labels as in commit::Cluster::Options::num_zones.
    std::size_t num_zones = 0;
    /// Debug cross-check of the witness index against the flat log scan
    /// (see commit::ReplicaCore::Options); aborts on divergence.
    bool check_certifier_index = false;
  };

  explicit Cluster(Options options);

  /// Shard s's current configuration, read in place: the stored per-shard
  /// configuration (unsafe mode) or shard s's view of the stored global one
  /// (safe mode), which is built once per global epoch.
  const configsvc::ShardConfig& current_config(ShardId s) const;
  Epoch current_epoch() const;  ///< safe mode: the stored global epoch
  ProcessId leader_of(ShardId s) const { return current_config(s).leader; }

  /// Runs until the configuration with epoch >= `at_least` is active
  /// (safe mode: all members of all shards report it).
  bool await_active_epoch(Epoch at_least, std::size_t max_events = 2'000'000);
  bool await_active_shard_epoch(ShardId s, Epoch at_least,
                                std::size_t max_events = 2'000'000);

  Fabric& fabric() { return *fabric_; }
  commit::Monitor& monitor() { return monitor_; }

  /// Read-only snapshot transaction with ZERO certification messages and no
  /// fabric flush (see rdma::Replica's CSN read surface), served like the
  /// message-passing stack's: SimHost::serve_snapshot_read with
  /// recon::epoch_current_member.
  std::optional<tcs::Csn> snapshot_read(const std::vector<ObjectId>& objects,
                                        Duration staleness_bound = 0,
                                        std::uint64_t member_hint = 0);

  /// End-of-run verdict: monitor violations, conflicting client decisions
  /// and TCS-LL.
  std::string verify() const;

 private:
  const ReconfigMode mode_;
  std::unique_ptr<Fabric> fabric_;
  commit::Monitor monitor_;
  MonitorTap monitor_tap_;
  std::unique_ptr<configsvc::SimpleConfigService> cs_;
  /// Safe mode: every shard's view of the latest global configuration,
  /// rebuilt when its epoch changes.
  mutable std::vector<configsvc::ShardConfig> shard_views_;
};

}  // namespace ratc::rdma
