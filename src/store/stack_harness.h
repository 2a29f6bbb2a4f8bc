// StackHarness: one uniform driving surface over the three transaction
// stacks (the paper's message-passing protocol, its RDMA variant, and the
// 2PC-over-Paxos baseline in each of its termination modes, Paxos Commit
// included), promoted out of the test harness so sweeps, benches and
// examples all build, fault and check a stack the same way.
//
// Each harness owns a fully assembled cluster plus a history-recording
// client and exposes:
//   * construction from a shared StackWorkload (per-stack knobs that do not
//     apply are ignored);
//   * submission through a live coordinator (seeded-random pick, so a run
//     stays a pure function of its seed);
//   * the crash / reconfigure / leadership-change levers of the stack,
//     guarded by the stack's own liveness assumptions (the paper's
//     Assumption 1 for the reconfigurable stacks, Paxos majorities for the
//     baseline);
//   * the machine topology for partition-shaped faults (fault_units); and
//   * the checkers that apply to the stack, enumerated by kCheckers:
//     verify() folds in the online monitor and TCS-LL where they exist,
//     check_linearization() runs the exact DFS.
//
// The compile-time surface shared by every harness (and by the Paxos
// substrate adapter in tests/harness/sweep.cc):
//
//   using Workload;                        // StackWorkload-shaped knobs
//   static constexpr const char* kName;
//   static constexpr std::uint64_t kWorkloadSalt;  // workload rng derivation
//   static constexpr Duration kPaceHi;             // inter-txn think time
//   static constexpr CheckerSet kCheckers;
//   Harness(std::uint64_t seed, const Workload& w);
//   sim::Simulator& sim();
//   void install_fault_injector(sim::FaultInjector*);
//   void set_on_decision(std::function<void(TxnId, tcs::Decision)>);
//   TxnId next_txn_id();
//   bool submit(Rng&, TxnId, const tcs::Payload&);
//   std::size_t decided_count() / committed_count();
//   std::uint32_t num_shards();
//   std::vector<std::vector<ProcessId>> fault_units(ShardId) / all_units();
//   bool crash_and_reconfigure(Rng&, ShardId) / reconfigure_healthy(Rng&, ShardId);
//   void drain(Duration, Rng&);
//   std::string verify() / check_linearization() / trace();
//   std::size_t controller_attempts();   // optional (requires-detected): stacks
//                                        // with autonomous controllers (src/ctrl/)
#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "baseline/cluster.h"
#include "commit/client.h"
#include "commit/cluster.h"
#include "ctrl/placement.h"
#include "rdma/cluster.h"
#include "recon/engine.h"
#include "recon/placement.h"
#include "sim/fault.h"
#include "tcs/payload.h"

namespace ratc::store {

/// Construction and workload knobs shared by the stack harnesses.  Knobs
/// that do not apply to a stack are ignored by its harness (the baseline
/// has no spares or retry timeout; only the RDMA stack has a fabric).
struct StackWorkload {
  std::uint32_t num_shards = 3;
  std::size_t shard_size = 2;
  std::size_t spares_per_shard = 6;
  int total_txns = 200;
  ObjectId object_universe = 24;
  std::string isolation = "serializability";
  bool exponential_delays = false;
  Duration retry_timeout = 120;
  Duration drain = 8000;  ///< post-workload settle time (ticks)
  /// Run the exact linearization DFS when |committed| <= this bound.
  std::size_t linearize_up_to = 25;
  /// Minimum fraction of submitted transactions that must decide; lossy
  /// schedules legitimately lose decisions, so sweeps tune this down.
  double min_decided_fraction = 0.9;
  bool capture_trace = true;
  /// RDMA only: also install the fault injector on the one-sided fabric.
  bool faults_on_fabric = true;
  /// Baseline only: what follows a coordinator crash (see
  /// src/baseline/termination.h).  BaselineCoopHarness and
  /// PaxosCommitHarness force kCooperative and kPaxosCommit.
  baseline::TerminationMode termination = baseline::TerminationMode::kClassical;
  /// Commit/RDMA stacks: spawn the autonomous reconfiguration controllers
  /// (src/ctrl/), one per shard, which detect failures through the FD and
  /// heal shards with no harness intervention.  The baseline has no
  /// reconfiguration to drive and ignores it.
  bool autonomous_controller = false;
  ctrl::ControllerTuning controller;
  /// Membership policy for every reconfigurer in the stack (replica-driven
  /// and controller-driven alike): "replace-suspects" (the default) or
  /// "zone-anti-affinity" (see recon/placement.h).  Unknown names throw.
  std::string placement = "replace-suspects";
  /// Synthetic zone labels for placement (0 = unlabeled); pids get zones
  /// "z0".."z<n-1>" round-robin by per-shard index.
  std::size_t num_zones = 0;
  /// When false, crash_and_reconfigure only crashes: the harness-side
  /// repair (reconfigure + await activation, or the baseline's leader
  /// failover) is suppressed, making the crash events a pure crash-only
  /// nemesis — recovery, if any, is the controllers' job.
  bool harness_repair = true;
  /// Transactions grouped into each submission round (1 = scalar submit,
  /// bit-identical to the pre-batching driver).  Batches ride one CERTIFY
  /// round per coordinator; see store::WorkloadRunner.
  std::size_t batch_size = 1;
  /// Debug cross-check: recompute every certification vote with the flat
  /// L1/L2 log scan and every read watermark with a whole-log scan, and
  /// abort on divergence (commit/rdma stacks; the baseline ignores it).
  bool check_certifier_index = false;
  /// Read-mix knob for the CSN snapshot fast path: each workload iteration
  /// issues a geometric number of read-only snapshot transactions with this
  /// success probability — read:update ratio rf/(1-rf) in expectation, so
  /// 0.95 is the 95/5 mix and 0 disables reads.  Reads ride a dedicated rng
  /// stream and send zero messages, so the update trace (and the run
  /// fingerprint) is bit-identical to a read-free run of the same seed.
  double read_fraction = 0.0;
  /// Staleness bound for snapshot reads (ticks; 0 = unbounded): a read
  /// whose snapshot lags "now" by more than the bound is rejected unserved
  /// rather than answered stale.
  Duration read_staleness_bound = 0;
};

/// Which end-of-run checkers apply to a stack.  monitor and tcsll are
/// folded into verify(); linearization gates check_linearization().
struct CheckerSet {
  bool monitor = false;
  bool tcsll = false;
  bool linearization = false;
};

/// Shared payload generator: contended read-write transactions in the style
/// of commit_random_test (the versions map feeds realistic read versions).
class ContendedPayloadGen {
 public:
  ContendedPayloadGen(Rng& rng, ObjectId universe) : rng_(rng), universe_(universe) {}

  tcs::Payload next() {
    tcs::Payload p;
    std::uint64_t nobjs = 1 + rng_.below(3);
    Version maxv = 0;
    for (std::uint64_t j = 0; j < nobjs; ++j) {
      ObjectId obj = rng_.below(universe_);
      if (p.reads_object(obj)) continue;
      Version v = versions_.count(obj) ? versions_[obj] : 0;
      p.reads.push_back({obj, v});
      maxv = std::max(maxv, v);
    }
    for (const auto& r : p.reads) {
      if (rng_.chance(0.6)) {
        p.writes.push_back({r.object, static_cast<Value>(rng_.below(1000))});
      }
    }
    p.commit_version = maxv + 1;
    return p;
  }

  void observe_commit(const tcs::Payload& p) {
    for (const auto& w : p.writes) {
      versions_[w.object] = std::max(versions_[w.object], p.commit_version);
    }
  }

 private:
  Rng& rng_;
  ObjectId universe_;
  std::map<ObjectId, Version> versions_;
};

/// Paper protocol (Fig. 1): shards of f+1 replicas plus spares, per-shard
/// reconfiguration through the configuration service.
class CommitHarness {
 public:
  using Workload = StackWorkload;
  static constexpr const char* kName = "commit";
  static constexpr std::uint64_t kWorkloadSalt = 0xabcdefULL;
  static constexpr Duration kPaceHi = 6;  // matches commit_random_test pacing
  static constexpr CheckerSet kCheckers{true, true, true};

  CommitHarness(std::uint64_t seed, const StackWorkload& w);

  sim::Simulator& sim() { return cluster_.sim(); }
  commit::Cluster& cluster() { return cluster_; }
  void install_fault_injector(sim::FaultInjector* fi);
  void set_on_decision(std::function<void(TxnId, tcs::Decision)> fn);
  TxnId next_txn_id() { return cluster_.next_txn_id(); }
  bool submit(Rng& rng, TxnId txn, const tcs::Payload& payload);
  /// Submits the whole batch through one live coordinator (one
  /// PREPARE_BATCH per shard leader); false if no coordinator is live.
  bool submit_batch(Rng& rng,
                    const std::vector<std::pair<TxnId, tcs::Payload>>& batch);
  std::size_t decided_count() const { return client_->decided_count(); }
  std::size_t committed_count() { return cluster_.history().committed_count(); }
  /// Issues one read-only snapshot transaction over `objects` through the
  /// CSN fast path (zero certification messages); true iff it was served.
  /// Consumes only the caller's rng — drivers pass a dedicated read stream
  /// so the update trace is untouched.
  bool snapshot_read(Rng& rng, const std::vector<ObjectId>& objects);
  std::size_t reads_attempted() const { return reads_attempted_; }
  std::size_t reads_served() const { return reads_served_; }
  /// Runs the snapshot-read checker over the recorded history; empty iff
  /// every served read was a consistent, sufficiently fresh snapshot.
  std::string check_snapshot_reads();

  std::uint32_t num_shards() const { return cluster_.num_shards(); }
  std::vector<std::vector<ProcessId>> fault_units(ShardId s) const;
  std::vector<std::vector<ProcessId>> all_units() const;
  bool crash_and_reconfigure(Rng& rng, ShardId s);
  bool reconfigure_healthy(Rng& rng, ShardId s);
  void drain(Duration d, Rng& rng);
  /// Reconfiguration attempts the autonomous controllers started (0 when
  /// the workload did not enable them).
  std::size_t controller_attempts() const { return cluster_.controller_attempts(); }
  /// Aggregate recon::Engine counters over every reconfigurer.
  recon::EngineStats engine_stats() const { return cluster_.engine_stats(); }
  /// Per-engine spare-ledger invariant (empty iff balanced); asserted by
  /// every random sweep through apply_end_of_run_checks.
  std::string spare_ledger_verdict() const { return cluster_.spare_ledger_verdict(); }

  std::string verify() { return cluster_.verify(); }
  std::string check_linearization();
  std::string trace();

 private:
  std::vector<ProcessId> alive_members(ShardId s);

  StackWorkload w_;
  recon::ZoneAntiAffinityPolicy zone_policy_;  ///< selected by w.placement
  commit::Cluster cluster_;
  commit::Client* client_;
  std::size_t reads_attempted_ = 0;
  std::size_t reads_served_ = 0;
};

/// RDMA protocol (Figs. 7-8) in safe global-reconfiguration mode.
class RdmaHarness {
 public:
  using Workload = StackWorkload;
  static constexpr const char* kName = "rdma";
  static constexpr std::uint64_t kWorkloadSalt = 0x5eedULL;
  static constexpr Duration kPaceHi = 5;  // matches rdma_random_test pacing
  static constexpr CheckerSet kCheckers{true, true, true};

  RdmaHarness(std::uint64_t seed, const StackWorkload& w);

  sim::Simulator& sim() { return cluster_.sim(); }
  rdma::Cluster& cluster() { return cluster_; }
  void install_fault_injector(sim::FaultInjector* fi);
  void set_on_decision(std::function<void(TxnId, tcs::Decision)> fn);
  TxnId next_txn_id() { return cluster_.next_txn_id(); }
  bool submit(Rng& rng, TxnId txn, const tcs::Payload& payload);
  bool submit_batch(Rng& rng,
                    const std::vector<std::pair<TxnId, tcs::Payload>>& batch);
  std::size_t decided_count() const { return client_->decided_count(); }
  std::size_t committed_count() { return cluster_.history().committed_count(); }
  /// CSN fast-path read; see CommitHarness::snapshot_read.
  bool snapshot_read(Rng& rng, const std::vector<ObjectId>& objects);
  std::size_t reads_attempted() const { return reads_attempted_; }
  std::size_t reads_served() const { return reads_served_; }
  std::string check_snapshot_reads();

  std::uint32_t num_shards() const { return cluster_.shard_map().num_shards(); }
  std::vector<std::vector<ProcessId>> fault_units(ShardId s) const;
  std::vector<std::vector<ProcessId>> all_units() const;
  bool crash_and_reconfigure(Rng& rng, ShardId s);
  bool reconfigure_healthy(Rng& rng, ShardId s);
  void drain(Duration d, Rng& rng);
  std::size_t controller_attempts() const { return cluster_.controller_attempts(); }
  recon::EngineStats engine_stats() const { return cluster_.engine_stats(); }
  std::string spare_ledger_verdict() const { return cluster_.spare_ledger_verdict(); }

  std::string verify() { return cluster_.verify(); }
  std::string check_linearization();
  std::string trace();

 private:
  std::vector<ProcessId> alive_members(ShardId s);

  StackWorkload w_;
  recon::ZoneAntiAffinityPolicy zone_policy_;
  rdma::Cluster cluster_;
  rdma::Client* client_;
  std::size_t reads_attempted_ = 0;
  std::size_t reads_served_ = 0;
};

/// Vanilla 2PC-over-Paxos baseline: shards of 2f+1 servers, each paired
/// with a Paxos replica on the same machine.  Coordinator state is not
/// replicated, so under kClassical a coordinator crash blocks its in-flight
/// transactions — the weakness the paper's protocols remove; sweeps
/// document it by tuning min_decided_fraction down.  No online monitor or
/// TCS-LL oracle exists for this stack: verify() checks decision agreement
/// across replicas and shards plus the serializability conflict graph, and
/// the black-box linearization DFS still applies.
class BaselineHarness {
 public:
  using Workload = StackWorkload;
  static constexpr const char* kName = "baseline";
  static constexpr std::uint64_t kWorkloadSalt = 0xba5e11eULL;
  static constexpr Duration kPaceHi = 6;
  static constexpr CheckerSet kCheckers{false, false, true};

  BaselineHarness(std::uint64_t seed, const StackWorkload& w);

  sim::Simulator& sim() { return cluster_.sim(); }
  baseline::BaselineCluster& cluster() { return cluster_; }
  void install_fault_injector(sim::FaultInjector* fi);
  void set_on_decision(std::function<void(TxnId, tcs::Decision)> fn);
  TxnId next_txn_id() { return cluster_.next_txn_id(); }
  bool submit(Rng& rng, TxnId txn, const tcs::Payload& payload);
  /// Groups the batch by 2PC coordinator (the leader of each transaction's
  /// first shard) and sends one B_CERTIFY_BATCH per group; false if every
  /// group's coordinator is crashed.
  bool submit_batch(Rng& rng,
                    const std::vector<std::pair<TxnId, tcs::Payload>>& batch);
  std::size_t decided_count() const { return client_->decided_count(); }
  std::size_t committed_count() { return cluster_.history().committed_count(); }
  /// CSN fast-path read, leader-gated for the baseline (no all-follower-ack
  /// rule, so only caught-up Paxos leaders serve); true iff served.
  bool snapshot_read(Rng& rng, const std::vector<ObjectId>& objects);
  std::size_t reads_attempted() const { return reads_attempted_; }
  std::size_t reads_served() const { return reads_served_; }
  std::string check_snapshot_reads();

  std::uint32_t num_shards() const { return cluster_.num_shards(); }
  std::vector<std::vector<ProcessId>> fault_units(ShardId s) const;
  std::vector<std::vector<ProcessId>> all_units() const;
  bool crash_and_reconfigure(Rng& rng, ShardId s);
  bool reconfigure_healthy(Rng& rng, ShardId s);
  void drain(Duration d, Rng& rng);

  /// Termination counters aggregated over every shard server (all zero
  /// under kClassical).  Surfaced in RunResult so ladder sweeps can assert
  /// on the blocked/resolved columns directly.
  baseline::TerminationStats termination_stats() const {
    return cluster_.termination_stats();
  }

  /// Decision agreement across servers + the serializability conflict
  /// graph over the committed projection (skipped for other isolations).
  std::string verify();
  std::string check_linearization();
  std::string trace();

 protected:
  static StackWorkload with_termination(StackWorkload w, baseline::TerminationMode m) {
    w.termination = m;
    return w;
  }

 private:
  std::vector<ProcessId> alive_servers(ShardId s);

  StackWorkload w_;
  baseline::BaselineCluster cluster_;
  baseline::BaselineClient* client_;
  std::size_t reads_attempted_ = 0;
  std::size_t reads_served_ = 0;
};

/// The baseline with cooperative termination bolted on (participants
/// resolve in-doubt transactions by querying their peers — Gray & Lamport,
/// "Consensus on Transaction Commit").  Everything else — topology,
/// workload salt, pacing, checkers — is inherited unchanged, so a (seed,
/// schedule) pair faces every termination mode with the identical workload
/// and fault sequence, isolating the termination protocol as the only
/// difference.
class BaselineCoopHarness : public BaselineHarness {
 public:
  static constexpr const char* kName = "baseline-coop";

  BaselineCoopHarness(std::uint64_t seed, const StackWorkload& w)
      : BaselineHarness(seed, with_termination(w, baseline::TerminationMode::kCooperative)) {}
};

/// Paxos Commit (Gray & Lamport): the baseline in kPaxosCommit mode, the
/// ladder's strongest classical rung.  Every participant's vote is a chosen
/// value of its shard's Paxos log, so a crashed coordinator never strands a
/// fully-prepared transaction (zero all-prepared blocked windows, asserted
/// by the ladder sweeps).
class PaxosCommitHarness : public BaselineHarness {
 public:
  static constexpr const char* kName = "paxos-commit";

  PaxosCommitHarness(std::uint64_t seed, const StackWorkload& w)
      : BaselineHarness(seed, with_termination(w, baseline::TerminationMode::kPaxosCommit)) {}
};

}  // namespace ratc::store
