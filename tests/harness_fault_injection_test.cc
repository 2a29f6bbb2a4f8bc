// Fault-injection sweeps (the harness's reason to exist): N-seed sweeps of
// nemesis schedules — crash-stop, mid-transaction reconfiguration, network
// partitions (single-victim, majority splits, asymmetric one-way), clock
// skew, message drops and delay spikes — over the commit, RDMA, baseline
// (classical and cooperative-termination), Paxos Commit (see
// pc_random_test.cc for its dedicated sweeps) and Paxos stacks, all
// through the same templated driver.  Every run is
// validated by the checkers its stack enumerates: the online invariant
// monitor (Fig. 3/5), the TCS-LL checker (Fig. 6), and, when the committed
// projection is small enough for the exact DFS, the linearization checker.
//
// Sweeps run on a thread pool (parallel_sweep_seeds); every run is
// seed-isolated, and aggregation is in seed order, so results are
// independent of the thread count (harness_determinism_test enforces it).
//
// Reproducing a failure: every RunResult names its seed; re-run the same
// TEST with that seed (see tests/README.md).
#include <gtest/gtest.h>

#include "harness/schedule.h"
#include "harness/sweep.h"

namespace ratc::harness {
namespace {

constexpr std::uint64_t kFirstSeed = 1;
// Sweep convention: >= 20 seeds.  The nightly deep-sweep CI job raises the
// count to hundreds per schedule shape via RATC_SWEEP_SEEDS (sweep.h).
const int kSweepSeeds = sweep_seed_count(24);
const int kSmallSweepSeeds = sweep_seed_count(20);

Schedule schedule_for(std::uint64_t seed, const ScheduleOptions& opt) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eedULL);
  return generate_schedule(rng, opt);
}

// --- commit stack -------------------------------------------------------------

TEST(CommitFaultSweep, CrashAndReconfigureSchedules) {
  ScheduleOptions opt;
  opt.crashes = 3;
  opt.reconfigures = 2;
  opt.partitions = 0;
  opt.delay_windows = 0;
  CommitWorkloadOptions w;
  w.total_txns = 150;
  // Every vote recomputed through the flat L1/L2 scan: divergence from the
  // witness index aborts the run (tests/README.md "Batched certification").
  w.check_certifier_index = true;
  SweepResult sweep =
      parallel_sweep_seeds(kFirstSeed, kSweepSeeds, [&](std::uint64_t seed) {
        return run_commit_workload(seed, w, schedule_for(seed, opt));
      });
  EXPECT_TRUE(sweep.ok()) << sweep.report();
}

TEST(CommitFaultSweep, PartitionSchedules) {
  // Held-back partitions: eventual delivery preserved, so liveness after
  // healing is still required.  The bar is lower than the crash sweep's: a
  // partitioned coordinator stalls a backlog of transactions, and a
  // subsequent crash legitimately loses all of them (paper Sec. 3).
  ScheduleOptions opt;
  opt.crashes = 1;
  opt.reconfigures = 1;
  opt.partitions = 2;
  opt.delay_windows = 1;
  CommitWorkloadOptions w;
  w.total_txns = 150;
  w.min_decided_fraction = 0.6;
  SweepResult sweep =
      parallel_sweep_seeds(kFirstSeed, kSweepSeeds, [&](std::uint64_t seed) {
        return run_commit_workload(seed, w, schedule_for(seed, opt));
      });
  EXPECT_TRUE(sweep.ok()) << sweep.report();
}

TEST(CommitFaultSweep, MajoritySplitAndAsymmetricSchedules) {
  // The new shapes: a cluster-wide two-sided split, a one-way partition
  // (victim deaf or mute but not both), and a clock-skew window.  All held
  // back, so eventual delivery holds and decent liveness is still owed —
  // but a split or half-link can stall a coordinator for a full window, so
  // the bar sits below the crash sweep's.
  ScheduleOptions opt;
  opt.crashes = 1;
  opt.reconfigures = 1;
  opt.partitions = 0;
  opt.delay_windows = 0;
  opt.majority_splits = 1;
  opt.one_way_partitions = 1;
  opt.clock_skews = 1;
  CommitWorkloadOptions w;
  w.total_txns = 150;
  w.min_decided_fraction = 0.6;
  SweepResult sweep =
      parallel_sweep_seeds(kFirstSeed, kSweepSeeds, [&](std::uint64_t seed) {
        return run_commit_workload(seed, w, schedule_for(seed, opt));
      });
  EXPECT_TRUE(sweep.ok()) << sweep.report();
}

TEST(CommitFaultSweep, LossyNetworkSchedulesAreSafe) {
  // Message drops violate the paper's reliable-link assumption, so only
  // safety is asserted (the monitor invariants, TCS-LL and decision
  // uniqueness must survive arbitrary loss); liveness is best-effort.
  // Lossy majority splits and one-way partitions ride along.
  ScheduleOptions opt;
  opt.crashes = 1;
  opt.partitions = 1;
  opt.lossy_partitions = true;
  opt.drop_windows = 2;
  opt.drop_probability = 0.08;
  opt.delay_windows = 1;
  opt.majority_splits = 1;
  opt.one_way_partitions = 1;
  CommitWorkloadOptions w;
  w.total_txns = 120;
  w.min_decided_fraction = 0.0;
  SweepResult sweep =
      parallel_sweep_seeds(kFirstSeed, kSweepSeeds, [&](std::uint64_t seed) {
        return run_commit_workload(seed, w, schedule_for(seed, opt));
      });
  EXPECT_TRUE(sweep.ok()) << sweep.report();
}

TEST(CommitFaultSweep, SmallContendedRunsAreLinearizable) {
  // Small committed projections so the exact linearization DFS runs on
  // every seed (the big sweeps only get it when few transactions commit).
  ScheduleOptions opt;
  opt.crashes = 1;
  opt.reconfigures = 1;
  opt.partitions = 1;
  opt.window_hi = 120;
  CommitWorkloadOptions w;
  w.total_txns = 18;
  w.object_universe = 6;  // heavy contention => aborts => interesting DFS
  // Tiny runs have high variance: one partitioned-then-crashed coordinator
  // can take a third of the workload with it.
  w.min_decided_fraction = 0.5;
  SweepResult sweep =
      parallel_sweep_seeds(kFirstSeed, kSweepSeeds, [&](std::uint64_t seed) {
        return run_commit_workload(seed, w, schedule_for(seed, opt));
      });
  EXPECT_TRUE(sweep.ok()) << sweep.report();
  EXPECT_EQ(sweep.linearization_checks, static_cast<std::size_t>(kSweepSeeds));
}

TEST(CommitFaultSweep, SnapshotIsolationChaos) {
  ScheduleOptions opt;
  opt.crashes = 2;
  opt.reconfigures = 1;
  opt.partitions = 1;
  opt.delay_windows = 1;
  CommitWorkloadOptions w;
  w.total_txns = 120;
  w.isolation = "snapshot-isolation";
  // Floor calibrated against the nightly 250-seed census (worst seed 0.575:
  // a partitioned-then-crashed coordinator strands a chunk of the run).
  w.min_decided_fraction = 0.5;
  SweepResult sweep = parallel_sweep_seeds(kFirstSeed, kSmallSweepSeeds, [&](std::uint64_t seed) {
    return run_commit_workload(seed, w, schedule_for(seed, opt));
  });
  EXPECT_TRUE(sweep.ok()) << sweep.report();
}

TEST(CommitFaultSweep, ExponentialDelayChaos) {
  ScheduleOptions opt;
  opt.crashes = 2;
  opt.reconfigures = 1;
  opt.partitions = 1;
  opt.delay_windows = 2;
  opt.delay_hi = 60;
  CommitWorkloadOptions w;
  w.total_txns = 100;
  w.exponential_delays = true;
  w.retry_timeout = 400;
  w.drain = 20000;
  // Nightly 250-seed census worst seed: 0.66.
  w.min_decided_fraction = 0.6;
  SweepResult sweep = parallel_sweep_seeds(kFirstSeed, kSmallSweepSeeds, [&](std::uint64_t seed) {
    return run_commit_workload(seed, w, schedule_for(seed, opt));
  });
  EXPECT_TRUE(sweep.ok()) << sweep.report();
}

// --- rdma stack ---------------------------------------------------------------

TEST(RdmaFaultSweep, CrashAndGlobalReconfiguration) {
  ScheduleOptions opt;
  opt.crashes = 2;
  opt.reconfigures = 1;
  opt.partitions = 0;
  opt.delay_windows = 1;
  RdmaWorkloadOptions w;
  w.total_txns = 120;
  // Nightly 250-seed census worst seed: 0.84.
  w.min_decided_fraction = 0.8;
  // Indexed certifier cross-checked against the flat scan on every vote.
  w.check_certifier_index = true;
  SweepResult sweep =
      parallel_sweep_seeds(kFirstSeed, kSweepSeeds, [&](std::uint64_t seed) {
        return run_rdma_workload(seed, w, schedule_for(seed, opt));
      });
  EXPECT_TRUE(sweep.ok()) << sweep.report();
}

TEST(RdmaFaultSweep, PartitionAndFabricDelaySchedulesAreSafe) {
  // Partitions here also hold back one-sided RDMA writes; a write landing
  // after the victim reconnects hits a newer queue-pair generation and is
  // rejected — exactly the race the corrected protocol (Fig. 4b) must win.
  // One-way partitions and clock skew sharpen it: an ACCEPT write can now
  // be in flight while the (deaf but not mute) victim drives a
  // reconfiguration, and property (*) must still hold on every landing —
  // self-writes included, now that they are synchronous local stores.
  ScheduleOptions opt;
  opt.crashes = 1;
  opt.reconfigures = 1;
  opt.partitions = 1;
  opt.delay_windows = 1;
  opt.one_way_partitions = 1;
  opt.clock_skews = 1;
  RdmaWorkloadOptions w;
  w.total_txns = 100;
  // Nightly 250-seed census worst seed: 0.44.
  w.min_decided_fraction = 0.35;
  SweepResult sweep = parallel_sweep_seeds(kFirstSeed, kSmallSweepSeeds, [&](std::uint64_t seed) {
    return run_rdma_workload(seed, w, schedule_for(seed, opt));
  });
  EXPECT_TRUE(sweep.ok()) << sweep.report();
}

// --- baseline stack ------------------------------------------------------------
//
// The 2PC-over-Paxos strawman, swept by the exact same driver.  Its safety
// obligations (replica agreement, atomic cross-shard decisions, legal
// linearizations) must survive every schedule; its *liveness* is strictly
// weaker than the paper protocol's — a crashed coordinator blocks its
// in-flight transactions forever — which the tuned-down decided fractions
// and the BaselineVsCommit test below document.

TEST(BaselineFaultSweep, CrashAndFailoverSchedules) {
  ScheduleOptions opt;
  opt.crashes = 2;
  opt.reconfigures = 1;  // leadership handover, the baseline's only lever
  opt.partitions = 0;
  opt.delay_windows = 1;
  BaselineWorkloadOptions w;
  w.total_txns = 120;
  // Every apply-time vote recomputed through the flat fold: divergence from
  // the object index aborts the run, leader elections included.
  w.check_certifier_index = true;
  SweepResult sweep =
      parallel_sweep_seeds(kFirstSeed, kSweepSeeds, [&](std::uint64_t seed) {
        return run_baseline_workload(seed, w, schedule_for(seed, opt));
      });
  EXPECT_TRUE(sweep.ok()) << sweep.report();
}

TEST(BaselineFaultSweep, PartitionSchedulesIncludingNewShapes) {
  // Held-back partitions of all three shapes.  Eventual delivery holds, so
  // most transactions still decide — but a partitioned leader stalls both
  // its Paxos group and every 2PC round it coordinates for the full window.
  ScheduleOptions opt;
  opt.crashes = 1;
  opt.reconfigures = 1;
  opt.partitions = 1;
  opt.majority_splits = 1;
  opt.one_way_partitions = 1;
  opt.clock_skews = 1;
  BaselineWorkloadOptions w;
  w.total_txns = 120;
  w.min_decided_fraction = 0.4;
  SweepResult sweep =
      parallel_sweep_seeds(kFirstSeed, kSweepSeeds, [&](std::uint64_t seed) {
        return run_baseline_workload(seed, w, schedule_for(seed, opt));
      });
  EXPECT_TRUE(sweep.ok()) << sweep.report();
}

TEST(BaselineFaultSweep, LossySchedulesAreSafe) {
  // Without retransmission above Paxos, message loss can block 2PC rounds
  // outright; only safety is asserted.
  ScheduleOptions opt;
  opt.crashes = 1;
  opt.partitions = 1;
  opt.lossy_partitions = true;
  opt.drop_windows = 2;
  opt.drop_probability = 0.08;
  opt.delay_windows = 1;
  BaselineWorkloadOptions w;
  w.total_txns = 100;
  w.min_decided_fraction = 0.0;
  SweepResult sweep = parallel_sweep_seeds(kFirstSeed, kSmallSweepSeeds, [&](std::uint64_t seed) {
    return run_baseline_workload(seed, w, schedule_for(seed, opt));
  });
  EXPECT_TRUE(sweep.ok()) << sweep.report();
}

// --- baseline + cooperative termination ----------------------------------------
//
// The strawman with the classical fix (baseline/termination.h): in-doubt
// participants query their peers and adopt any surviving decision.  Same
// safety obligations as the classical baseline, strictly better liveness —
// only all-prepared transactions still block.

TEST(BaselineCoopFaultSweep, CrashAndFailoverSchedules) {
  ScheduleOptions opt;
  opt.crashes = 2;
  opt.reconfigures = 1;
  opt.partitions = 0;
  opt.delay_windows = 1;
  BaselineCoopWorkloadOptions w;
  w.total_txns = 120;
  w.min_decided_fraction = 0.6;  // above the classical baseline's 0.5
  // Indexed votes cross-checked against the flat fold on every apply.
  w.check_certifier_index = true;
  SweepResult sweep =
      parallel_sweep_seeds(kFirstSeed, kSweepSeeds, [&](std::uint64_t seed) {
        return run_baseline_coop_workload(seed, w, schedule_for(seed, opt));
      });
  EXPECT_TRUE(sweep.ok()) << sweep.report();
}

TEST(BaselineCoopFaultSweep, PartitionSchedulesIncludingNewShapes) {
  // Partition shapes stress the false-suspicion path: a held-back leader
  // looks dead to its peers, termination rounds race its live decisions,
  // and the tombstone/log-order arbitration must keep everyone agreed.
  ScheduleOptions opt;
  opt.crashes = 1;
  opt.reconfigures = 1;
  opt.partitions = 1;
  opt.majority_splits = 1;
  opt.one_way_partitions = 1;
  opt.clock_skews = 1;
  BaselineCoopWorkloadOptions w;
  w.total_txns = 120;
  w.min_decided_fraction = 0.4;
  SweepResult sweep =
      parallel_sweep_seeds(kFirstSeed, kSweepSeeds, [&](std::uint64_t seed) {
        return run_baseline_coop_workload(seed, w, schedule_for(seed, opt));
      });
  EXPECT_TRUE(sweep.ok()) << sweep.report();
}

TEST(BaselineCoopFaultSweep, LossySchedulesAreSafe) {
  // Arbitrary loss can eat queries, answers and tombstone answers alike;
  // the bounded rounds must give up cleanly and every safety check hold.
  ScheduleOptions opt;
  opt.crashes = 1;
  opt.partitions = 1;
  opt.lossy_partitions = true;
  opt.drop_windows = 2;
  opt.drop_probability = 0.08;
  opt.delay_windows = 1;
  BaselineCoopWorkloadOptions w;
  w.total_txns = 100;
  w.min_decided_fraction = 0.0;
  SweepResult sweep =
      parallel_sweep_seeds(kFirstSeed, kSmallSweepSeeds, [&](std::uint64_t seed) {
        return run_baseline_coop_workload(seed, w, schedule_for(seed, opt));
      });
  EXPECT_TRUE(sweep.ok()) << sweep.report();
}

TEST(BaselineVsCommit, FourWayCoordinatorCrashCommittedFractionOrdering) {
  // The paper's motivating comparison, now four-way: identical crash-only
  // schedules against classical 2PC, cooperative-termination 2PC, Paxos
  // Commit, and the paper protocol.  The reconfigurable protocol recovers
  // every coordinator crash (the shard reconfigures and replicas re-certify
  // through the new epoch).  Classical 2PC loses the coordinator state with
  // the crashed leader, and the damage shows twice: its in-flight
  // transactions never decide, and their prepared witnesses poison every
  // object they touch, aborting all later conflicting transactions.
  // Cooperative termination resolves the in-doubt transactions whose peers
  // decided (or never prepared) and releases their objects, landing
  // strictly between the other two.  Paxos Commit replicates each vote
  // through the shard's own Paxos group, so the all-prepared window that
  // still blocks the cooperative variant terminates too — the ladder this
  // test pins (classical < coop <= paxos-commit, commit near the top), with
  // margins loose enough that the fixed seed set stays portable.
  ScheduleOptions opt;
  opt.crashes = 2;
  opt.reconfigures = 0;
  opt.partitions = 0;
  opt.delay_windows = 0;
  CommitWorkloadOptions cw;
  cw.total_txns = 120;
  cw.min_decided_fraction = 0.95;
  SweepResult commit =
      parallel_sweep_seeds(kFirstSeed, kSweepSeeds, [&](std::uint64_t seed) {
        return run_commit_workload(seed, cw, schedule_for(seed, opt));
      });
  EXPECT_TRUE(commit.ok()) << commit.report();

  BaselineWorkloadOptions bw;
  bw.total_txns = 120;
  bw.min_decided_fraction = 0.0;  // liveness is exactly what it lacks
  SweepResult baseline =
      parallel_sweep_seeds(kFirstSeed, kSweepSeeds, [&](std::uint64_t seed) {
        return run_baseline_workload(seed, bw, schedule_for(seed, opt));
      });
  EXPECT_TRUE(baseline.ok()) << baseline.report();  // safety still holds

  BaselineCoopWorkloadOptions pw;
  pw.total_txns = 120;
  pw.min_decided_fraction = 0.0;  // the all-prepared window still blocks
  SweepResult coop =
      parallel_sweep_seeds(kFirstSeed, kSweepSeeds, [&](std::uint64_t seed) {
        return run_baseline_coop_workload(seed, pw, schedule_for(seed, opt));
      });
  EXPECT_TRUE(coop.ok()) << coop.report();

  PaxosCommitWorkloadOptions xw;
  xw.total_txns = 120;
  xw.min_decided_fraction = 0.75;  // non-blocking: termination always lands
  SweepResult pc =
      parallel_sweep_seeds(kFirstSeed, kSweepSeeds, [&](std::uint64_t seed) {
        return run_paxos_commit_workload(seed, xw, schedule_for(seed, opt));
      });
  EXPECT_TRUE(pc.ok()) << pc.report();

  // Some classical-baseline transactions blocked outright (never decided),
  // and cooperative termination resolved part of that backlog.
  EXPECT_LT(baseline.total_decided, baseline.total_submitted);
  EXPECT_GE(coop.total_decided, baseline.total_decided);

  auto fraction = [](const SweepResult& r) {
    return static_cast<double>(r.total_committed) /
           static_cast<double>(r.total_submitted);
  };
  double commit_fraction = fraction(commit);
  double baseline_fraction = fraction(baseline);
  double coop_fraction = fraction(coop);
  double pc_fraction = fraction(pc);
  // The pinned ordering: classical < coop <= paxos-commit, with the paper
  // protocol at or near the top.  The classical gap to the paper protocol
  // stays wide; the coop variant must sit strictly above classical (it
  // unpoisons the resolvable objects) and at most negligibly above Paxos
  // Commit and the paper protocol.
  EXPECT_GT(commit_fraction, baseline_fraction + 0.03)
      << "commit committed fraction " << commit_fraction
      << " vs baseline " << baseline_fraction;
  EXPECT_GT(coop_fraction, baseline_fraction)
      << "coop committed fraction " << coop_fraction
      << " vs baseline " << baseline_fraction;
  EXPECT_LE(coop_fraction, commit_fraction + 0.01)
      << "coop committed fraction " << coop_fraction
      << " vs commit " << commit_fraction;
  EXPECT_LE(coop_fraction, pc_fraction + 0.01)
      << "coop committed fraction " << coop_fraction
      << " vs paxos-commit " << pc_fraction;
  // Paxos Commit never gives up on an in-doubt transaction: zero
  // termination give-ups across the whole sweep, unlike the cooperative
  // variant, whose all-prepared windows surface as blocked > 0 in the aimed
  // decision-window test (baseline_termination_random_test.cc).
  EXPECT_EQ(pc.total_term_blocked, 0u);
}

// --- paxos substrate ----------------------------------------------------------

TEST(PaxosFaultSweep, CrashElectionChurn) {
  ScheduleOptions opt;
  opt.crashes = 2;
  opt.reconfigures = 2;  // forced elections
  opt.partitions = 0;
  opt.delay_windows = 1;
  PaxosWorkloadOptions w;
  SweepResult sweep =
      parallel_sweep_seeds(kFirstSeed, kSweepSeeds, [&](std::uint64_t seed) {
        return run_paxos_workload(seed, w, schedule_for(seed, opt));
      });
  EXPECT_TRUE(sweep.ok()) << sweep.report();
}

TEST(PaxosFaultSweep, MinorityPartitionsAndLossyLinks) {
  // Paxos must stay safe under arbitrary message loss; applied logs of all
  // survivors must remain prefix-consistent.  Majority splits and one-way
  // partitions join the mix: a 5-replica group split 2/3 must keep making
  // progress on the majority side or stall safely.
  ScheduleOptions opt;
  opt.crashes = 1;
  opt.partitions = 2;
  opt.lossy_partitions = true;
  opt.drop_windows = 1;
  opt.drop_probability = 0.1;
  opt.delay_windows = 1;
  opt.majority_splits = 1;
  opt.one_way_partitions = 1;
  PaxosWorkloadOptions w;
  // Nightly 250-seed census worst seed: 0.15 (lossy links can eat most of
  // a 60-command run; safety is the real assertion here).
  w.min_decided_fraction = 0.1;
  SweepResult sweep =
      parallel_sweep_seeds(kFirstSeed, kSweepSeeds, [&](std::uint64_t seed) {
        return run_paxos_workload(seed, w, schedule_for(seed, opt));
      });
  EXPECT_TRUE(sweep.ok()) << sweep.report();
}

}  // namespace
}  // namespace ratc::harness
