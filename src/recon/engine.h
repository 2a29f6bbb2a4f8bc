// recon::Engine — the ONE reconfigurer state machine (paper Fig. 1 lines
// 33-55, generalized to the multi-shard probing of Fig. 8), extracted from
// what used to be four divergent copies: commit::Replica, rdma::Replica
// (safe and unsafe modes) and ctrl::ReconController.
//
// The engine owns the full attempt lifecycle:
//
//   start ──> fetch_latest ──> PROBE the stored membership ──┬─> PROBE_ACK(true)
//                 │                ^                         │   per shard
//                 │                └── descend an epoch  <───┤   │
//                 │                    (probe_patience,      │   v
//                 │                     PROBE_ACK(false))    │  PlacementPolicy
//                 v                                          │   │
//               abort (nothing stored / adapter veto)        │   v
//                                                            │  CS CAS ──> win: activate
//                                                            │         └─> loss: release
//                                                            │             reserved spares
//
// plus the cross-cutting bookkeeping every copy used to reimplement (and
// where the PR-4 spare-release fix had to be applied four times by hand):
//
//  * the allocated-spares ledger — spares a proposal reserves are released
//    back to the pool when the CAS loses, and the reserved/installed/
//    released/pending counters must always balance (asserted by the random
//    sweeps through the cluster's spare_ledger_verdict);
//  * pending-target tracking — once probes have gone out they have frozen
//    the probed replicas (Fig. 1 line 42), so the attempt's target epoch is
//    remembered across abandonment until a stored epoch >= the target is
//    observed; embedders that retry (the controller's watchdog) use it so a
//    frozen shard is never stranded by a lost ProbeAck + retracted
//    suspicion;
//  * per-attempt stats (probes sent, descents, CAS wins/losses, spares
//    reserved/released), surfaced end-to-end in harness RunResults.
//
// Everything substrate-specific sits behind the narrow StackHooks
// interface: how to read configurations (per-shard CS vs the RDMA global
// CS), how to deliver a PROBE, how to reserve/release fresh spares, how to
// CAS a proposal, and how to activate a won configuration (NEW_CONFIG to
// the new leader vs the Fig. 8 CONFIG_PREPARE dissemination).  The four
// former copies are now thin adapters implementing these hooks.
//
// Chockler & Gotsman (Multi-Shot Distributed Transaction Commit) and Gray &
// Lamport (Consensus on Transaction Commit) both present commit protocols
// as one abstract machine instantiated per substrate; the reconfigurer gets
// the same treatment here.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/types.h"
#include "configsvc/config.h"
#include "recon/placement.h"
#include "rt/runtime.h"

namespace ratc::recon {

/// What an attempt probes from: the latest stored epoch plus the membership
/// of every shard the attempt covers (exactly one shard for the per-shard
/// protocols; every shard for the RDMA global protocol).
struct Snapshot {
  Epoch epoch = kNoEpoch;
  std::map<ShardId, std::vector<ProcessId>> members;

  bool valid() const { return epoch != kNoEpoch; }
};

/// The configuration(s) an attempt asks the CS to store, one ShardConfig
/// per covered shard, all at the same next epoch.
struct Proposal {
  Epoch epoch = kNoEpoch;
  std::map<ShardId, configsvc::ShardConfig> shards;
};

/// Cumulative per-engine counters.  The spare ledger invariant —
/// reserved == installed + released + pending — holds at every instant by
/// construction; the random sweeps assert it at end of run so any future
/// release-path regression (the PR-4 bug class) fails loudly.
struct EngineStats {
  std::size_t attempts = 0;      ///< start() calls that began probing
  std::size_t probes_sent = 0;   ///< PROBE messages dispatched
  std::size_t descents = 0;      ///< probing descents (Fig. 1 line 52)
  std::size_t cas_wins = 0;      ///< proposals the CS stored
  std::size_t cas_losses = 0;    ///< proposals that lost the CAS race
  std::size_t abandoned = 0;     ///< attempts given up (descended below the
                                 ///< first epoch, or embedder watchdog)
  std::size_t spares_reserved = 0;   ///< fresh spares handed to proposals
  std::size_t spares_installed = 0;  ///< reserved spares that entered a stored config
  std::size_t spares_released = 0;   ///< reserved spares returned to the pool

  void accumulate(const EngineStats& o) {
    attempts += o.attempts;
    probes_sent += o.probes_sent;
    descents += o.descents;
    cas_wins += o.cas_wins;
    cas_losses += o.cas_losses;
    abandoned += o.abandoned;
    spares_reserved += o.spares_reserved;
    spares_installed += o.spares_installed;
    spares_released += o.spares_released;
  }
};

/// The substrate seam.  Implementations are thin: every callback either
/// forwards to the stack's CS client / network / spare pool or translates
/// between the stack's config representation and the engine's.  Reply
/// callbacks may fire at any later simulated time; the engine guards every
/// continuation with its own round counter, so adapters never need to.
class StackHooks {
 public:
  virtual ~StackHooks() = default;

  /// Latest stored configuration(s) covering `shards` (Fig. 1 line 36 /
  /// Fig. 8 line 106).  `ok=false` aborts the attempt — nothing is stored,
  /// or the adapter vetoed after syncing its own view (the controller
  /// re-checks its grievance here).
  virtual void fetch_latest(const std::vector<ShardId>& shards,
                            std::function<void(bool, Snapshot)> cb) = 0;

  /// Members of `shard` at exactly `epoch` (probing descent, line 53).
  virtual void fetch_members_at(
      ShardId shard, Epoch epoch,
      std::function<void(bool, std::vector<ProcessId>)> cb) = 0;

  /// Delivers PROBE(new_epoch) to `target` (line 39) — freezing it.
  virtual void send_probe(ProcessId target, Epoch new_epoch) = 0;

  /// Reserves up to n fresh spares for `shard` from the cluster's pool
  /// (may return fewer).  The engine releases whatever a losing or trimming
  /// proposal does not install.
  virtual std::vector<ProcessId> reserve_spares(ShardId shard, std::size_t n) = 0;
  virtual void release_spares(ShardId shard,
                              const std::vector<ProcessId>& spares) = 0;

  /// CAS the proposal into the CS against expected epoch
  /// `proposal.epoch - 1` (line 49 / Fig. 8 line 124); `done(won)`.
  virtual void submit(const Proposal& proposal, std::function<void(bool)> done) = 0;

  /// The CAS won: hand the configuration over (NEW_CONFIG to the new leader
  /// for per-shard stacks, CONFIG_PREPARE dissemination for the RDMA global
  /// protocol).
  virtual void activate(const Proposal& proposal) = 0;

  /// Cluster knowledge for the PlacementPolicy (zones, load, spare depth,
  /// and — for detector-carrying embedders — the current suspect set).
  virtual PlacementContext placement_context(ShardId shard) {
    (void)shard;
    return {};
  }
};

class Engine {
 public:
  struct Options {
    /// Desired configuration size (f+1); policies top up to this.
    std::size_t target_shard_size = 2;
    /// How long to wait for a PROBE_ACK(true) after the first
    /// PROBE_ACK(false) before descending an epoch (the paper's
    /// non-deterministic rule at line 51, scheduled by timer).
    Duration probe_patience = 5;
    /// Membership policy; null selects ReplaceSuspectsPolicy.  Non-owning.
    PlacementPolicy* policy = nullptr;
  };

  /// Timers are scheduled for `owner`, so the engine dies with its host
  /// process.  `hooks` must outlive the engine.
  Engine(rt::Runtime& rt, ProcessId owner, StackHooks& hooks, Options options);

  // --- attempt lifecycle ------------------------------------------------------

  /// Starts an attempt covering `shards` (the set is advisory for the
  /// fetch; the shards actually probed are whatever the Snapshot carries —
  /// the RDMA global protocol passes {} and probes every shard the GCS
  /// returns).  Returns false if an attempt is already in flight.
  bool start(std::vector<ShardId> shards);

  /// Feed from the host's message dispatch (Fig. 1 lines 45/51).
  void on_probe_ack(ProcessId from, ShardId shard, Epoch epoch, bool initialized);

  /// A stored epoch for `shard` became visible to the embedder
  /// (CONFIG_CHANGE and friends): supersedes an in-flight attempt aimed at
  /// or below it and resolves a pending target it satisfies.
  void observe_epoch(ShardId shard, Epoch stored);

  /// Abandons the in-flight attempt (embedder watchdog).  The pending
  /// target survives: probes already froze replicas, so the embedder must
  /// keep retrying until observe_epoch resolves it.
  void abandon();

  /// Delegating embedders (the RDMA controller's nudge) record the epoch
  /// their delegate is driving toward without probing themselves.
  void set_pending_target(Epoch target);

  // --- introspection ----------------------------------------------------------

  bool in_flight() const { return probing_; }
  Epoch pending_target() const { return pending_target_; }
  /// The epoch the in-flight attempt is trying to install (kNoEpoch before
  /// fetch_latest returns or when idle).
  Epoch attempt_epoch() const { return probing_ ? recon_epoch_ : kNoEpoch; }
  const EngineStats& stats() const { return stats_; }
  /// Spares reserved by proposals whose CAS outcome has not arrived yet.
  std::size_t spares_pending() const { return spares_pending_; }
  /// The ledger invariant; see EngineStats.
  bool ledger_balanced() const {
    return stats_.spares_reserved ==
           stats_.spares_installed + stats_.spares_released + spares_pending_;
  }

 private:
  /// Per-shard probing state of the in-flight attempt.
  struct ShardProbe {
    Epoch probed_epoch = kNoEpoch;
    std::vector<ProcessId> probed_members;
    std::set<ProcessId> responders;
    ProcessId leader_candidate = kNoProcess;
    bool round_has_false_ack = false;
    bool descend_timer_armed = false;
  };

  void begin_probing(const Snapshot& snap);
  void arm_descend_timer(ShardId shard);
  void descend(ShardId shard);
  bool all_candidates_found() const;
  void propose();

  rt::Runtime& rt_;
  ProcessId owner_;
  StackHooks& hooks_;
  Options options_;
  ReplaceSuspectsPolicy default_policy_;
  PlacementPolicy* policy_;  // options_.policy or &default_policy_

  bool probing_ = false;
  std::uint64_t round_ = 0;  ///< guards every deferred continuation
  Epoch recon_epoch_ = kNoEpoch;
  Epoch pending_target_ = kNoEpoch;
  std::map<ShardId, ShardProbe> state_;

  std::size_t spares_pending_ = 0;
  EngineStats stats_;
};

}  // namespace ratc::recon
