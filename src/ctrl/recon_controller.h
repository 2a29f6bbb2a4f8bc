// Autonomous reconfiguration controller: the control plane that closes the
// paper's loop.
//
// The paper (Sec. 3) says "reconfiguration is initiated by a replica when
// it suspects another replica of failing" — but in this repo every
// reconfiguration used to be triggered by an omniscient harness calling
// crash_and_reconfigure.  ReconController moves the loop inside the system:
//
//     failure detection  ->  candidate-config selection  ->  CS CAS
//          (fd::PingMonitor)     (recon::PlacementPolicy)       |
//               ^                                               v
//               +--------------- epoch handover  <--------------+
//                        (CONFIG_CHANGE subscription)
//
// One ReconController runs per shard as an ordinary simulated process (it
// can crash, be partitioned, or race other controllers).  It watches the
// shard's current members through a ping/pong failure detector, subscribes
// to the configuration service's change notifications to track the live
// membership, and on suspicion — or when an attempt wedges (stuck epoch,
// lost probes) — initiates a reconfiguration:
//
//  * Commit stack (Mode::kPerShardCas): the controller plays the paper's
//    reconfigurer role itself — but the role's state machine (probe /
//    descend / placement / CAS with loser spare-release) lives in the
//    shared recon::Engine; the controller is one of its four StackHooks
//    adapters, contributing only what is controller-specific: the grievance
//    re-check after the CS read, the suspect set fed into the
//    PlacementContext, and the hysteresis/watchdog around attempts.
//    Concurrent controllers and replica-driven reconfigurations race
//    safely: the CAS admits exactly one winner per epoch and losers
//    re-observe via CONFIG_CHANGE.
//
//  * RDMA stack (Mode::kDelegateGlobal): reconfiguration is global (Fig. 8)
//    and its activation needs fabric-side connection management that only
//    replicas can perform, so the controller delegates execution — it
//    nudges a live, non-suspected replica to run the global protocol; the
//    global CS CAS inside the replicas arbitrates concurrent nudges.  The
//    engine still tracks the pending target so a dead delegate is re-nudged.
//
// Robustness to false suspicion (the concern FLAC, Pan et al., makes
// central): a one-way-partitioned replica is alive but silent towards the
// controller, and acting on every suspicion would thrash epochs.  The
// controller therefore applies hysteresis — exponential backoff between
// attempts per shard (kBackoffInitial doubling up to kBackoffMax), reset only
// after a quiet period — so any false-suspicion storm of bounded length initiates
// only O(log) epochs, and recovery (the suspect answering pings again)
// stops the loop before the next attempt fires.  Safety never depends on
// suspicion accuracy: a falsely-replaced replica costs one epoch, not an
// invariant.
//
// The membership chosen for the new epoch is the recon::PlacementPolicy
// extension point documented in recon/placement.h.
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "common/types.h"
#include "configsvc/client.h"
#include "configsvc/config.h"
#include "configsvc/messages.h"
#include "ctrl/placement.h"
#include "fd/failure_detector.h"
#include "recon/engine.h"
#include "sim/process.h"

namespace ratc::commit {
struct ProbeAck;
}

namespace ratc::ctrl {

class ReconController : public sim::Process, private recon::StackHooks {
 public:
  /// How attempts are executed; see the file comment.
  enum class Mode { kPerShardCas, kDelegateGlobal };

  struct Options {
    ShardId shard = 0;
    Mode mode = Mode::kPerShardCas;
    /// CS endpoints (per-shard CS for kPerShardCas; unused by the global
    /// mode, whose CAS happens inside the nudged replica).
    std::vector<ProcessId> cs_endpoints;
    std::size_t target_shard_size = 2;
    ControllerTuning tuning;
    /// Membership policy: the cluster's placement_policy, as for every other
    /// reconfigurer; null selects recon::ReplaceSuspectsPolicy.  Non-owning.
    recon::PlacementPolicy* placement_policy = nullptr;
    /// Fresh-spare allocator shared with the replicas (the cluster's pool).
    std::function<std::vector<ProcessId>(ShardId, std::size_t)> allocate_spares;
    /// Returns spares consumed by a proposal whose CAS lost the race; they
    /// never entered any stored configuration, so they are still globally
    /// fresh and may be handed out again.
    std::function<void(ShardId, const std::vector<ProcessId>&)> release_spares;
    /// Cluster knowledge (zones, load, spare depth) for the placement
    /// policy; the controller merges its own suspect set in.
    std::function<recon::PlacementContext(ShardId)> placement_context;
  };

  struct Stats {
    std::size_t suspicions = 0;        ///< suspicion edges heard
    std::size_t recoveries = 0;        ///< suspicions retracted by a pong
    std::size_t attempts = 0;          ///< reconfiguration attempts started
    std::size_t attempts_abandoned = 0;  ///< watchdog-expired attempts
    std::size_t epochs_initiated = 0;  ///< CAS wins (kPerShardCas)
    std::size_t cas_losses = 0;        ///< CAS races lost (kPerShardCas)
    std::size_t nudges = 0;            ///< delegated triggers (kDelegateGlobal)
  };

  /// Hysteresis: minimum gap between controller-initiated attempts for one
  /// shard, doubling per attempt up to the cap.  This is what bounds the
  /// epoch churn a falsely-suspected (live but half-partitioned) replica
  /// can cause.
  static constexpr Duration kBackoffInitial = 40;
  static constexpr Duration kBackoffMax = 1280;
  /// A quiet period this long resets the backoff to its initial value.
  static constexpr Duration kBackoffResetAfter = 2000;
  /// Watchdog: an attempt (probe round / delegated nudge) that produces
  /// neither a new epoch nor a definitive failure within this window is
  /// abandoned and, if suspects remain, retried under backoff.  Also covers
  /// stored-but-never-activated (stuck) epochs.
  static constexpr Duration kAttemptTimeout = 300;
  /// Probing-descent patience, as in the replica reconfigurer.
  static constexpr Duration kProbePatience = 5;

  ReconController(rt::Runtime& rt, ProcessId id, Options options);

  /// Installs the initial per-shard view and starts watching its members
  /// (commit stack).
  void bootstrap(const configsvc::ShardConfig& view);
  /// Same for the RDMA stack's global configuration.
  void bootstrap_global(const configsvc::GlobalConfig& config);

  ShardId shard() const { return options_.shard; }
  /// Snapshot assembled from the controller's own counters plus the shared
  /// reconfiguration engine's (CAS wins/losses live there now).
  Stats stats() const;
  const recon::Engine& engine() const { return engine_; }
  const configsvc::ShardConfig& view() const { return view_; }
  bool suspects(ProcessId p) const { return suspects_.count(p) > 0; }

  void on_message(ProcessId from, const sim::AnyMessage& msg) override;

 private:
  // --- trigger plumbing -------------------------------------------------------
  void on_suspect(ProcessId peer);
  void on_recover(ProcessId peer);
  bool have_live_grievance() const;
  /// Central gate: acts only when a current member is suspect, an attempt
  /// is not already in flight, and the backoff window has elapsed (else
  /// arms a retry timer for when it has).
  void maybe_act();
  void start_attempt();
  void arm_watchdog();

  // --- view tracking ----------------------------------------------------------
  void adopt_view(const configsvc::ShardConfig& next);
  void handle_config_change(const configsvc::ConfigChange& m);
  void handle_global_config_change(const configsvc::GlobalConfigChange& m);

  // --- recon::StackHooks (kPerShardCas; the engine runs the Fig. 1 role) -----
  void fetch_latest(const std::vector<ShardId>& shards,
                    std::function<void(bool, recon::Snapshot)> cb) override;
  void fetch_members_at(
      ShardId shard, Epoch epoch,
      std::function<void(bool, std::vector<ProcessId>)> cb) override;
  void send_probe(ProcessId target, Epoch new_epoch) override;
  std::vector<ProcessId> reserve_spares(ShardId shard, std::size_t n) override;
  void release_spares(ShardId shard,
                      const std::vector<ProcessId>& spares) override;
  void submit(const recon::Proposal& proposal,
              std::function<void(bool)> done) override;
  void activate(const recon::Proposal& proposal) override;
  recon::PlacementContext placement_context(ShardId shard) override;

  // --- kDelegateGlobal --------------------------------------------------------
  void nudge();

  Options options_;
  configsvc::CsClient cs_;
  fd::PingMonitor fd_;
  recon::Engine engine_;

  configsvc::ShardConfig view_;      ///< latest known config of our shard
  configsvc::GlobalConfig gview_;    ///< kDelegateGlobal: full global config
  std::set<ProcessId> suspects_;

  // Hysteresis state.
  Duration backoff_;
  Time next_allowed_ = 0;
  Time last_attempt_at_ = 0;
  bool retry_armed_ = false;
  std::uint64_t round_ = 0;  ///< guards the attempt watchdog

  std::size_t nudge_rr_ = 0;  ///< round-robin cursor over nudge targets

  // Controller-side counters; engine counters are merged in stats().
  std::size_t suspicions_ = 0;
  std::size_t recoveries_ = 0;
  std::size_t attempts_ = 0;
  std::size_t attempts_abandoned_ = 0;
  std::size_t nudges_ = 0;
};

}  // namespace ratc::ctrl
