// Randomized sweeps of the CSN snapshot-read fast path.
//
// Every run already asserts, through apply_end_of_run_checks, that each
// served read was a consistent snapshot (checker::check_snapshot_reads) on
// top of the stack's own verifier and the linearization DFS.  This suite
// adds the read-mix dimension:
//   * all three stacks survive crash/partition/reconfiguration schedules at
//     read_fraction 0, 0.5 and 0.95 (the 95/5 mix);
//   * reads are genuinely exercised: a faultless 95/5 run serves a
//     multiple of its update count in reads on every stack;
//   * determinism: reads ride a dedicated rng stream and send nothing, so
//     the fingerprint at read_fraction 0.95 equals the same seed's
//     fingerprint at read_fraction 0 — the read mix is trace-invisible.
#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "harness/schedule.h"
#include "harness/sweep.h"

namespace ratc {
namespace {

harness::ScheduleOptions faulty_schedule() {
  harness::ScheduleOptions s;
  s.crashes = 1;
  s.reconfigures = 1;
  s.partitions = 1;
  s.delay_windows = 1;
  s.window_hi = 200;
  return s;
}

constexpr double kMixes[] = {0.0, 0.5, 0.95};

/// Every sweep sets `check_certifier_index`: the commit and rdma replicas
/// then recompute every vote and every read watermark with a whole-log scan
/// and abort on divergence, so reads under faults cross-check the
/// watermark's in-flight query; the baseline servers recompute every vote
/// with the flat fold over their applied transactions.
template <typename WorkloadT, typename RunFn>
void sweep_read_mixes(RunFn run_workload, int fallback_seeds,
                      const char* stack) {
  int seeds = harness::sweep_seed_count(fallback_seeds);
  for (double mix : kMixes) {
    WorkloadT w;
    w.total_txns = 60;
    w.drain = 5000;
    w.read_fraction = mix;
    w.check_certifier_index = true;
    harness::SweepResult sweep = harness::parallel_sweep_seeds(
        1, seeds, [&](std::uint64_t seed) {
          Rng r(seed);
          return run_workload(seed, w, generate_schedule(r, faulty_schedule()));
        });
    EXPECT_TRUE(sweep.ok()) << stack << " read_fraction " << mix << "\n"
                            << sweep.report();
  }
}

TEST(SnapshotReadSweep, CommitSurvivesFaultsAcrossReadMixes) {
  sweep_read_mixes<harness::CommitWorkloadOptions>(harness::run_commit_workload,
                                                   6, "commit");
}

TEST(SnapshotReadSweep, RdmaSurvivesFaultsAcrossReadMixes) {
  sweep_read_mixes<harness::RdmaWorkloadOptions>(harness::run_rdma_workload, 6,
                                                 "rdma");
}

TEST(SnapshotReadSweep, BaselineSurvivesFaultsAcrossReadMixes) {
  sweep_read_mixes<harness::BaselineWorkloadOptions>(
      harness::run_baseline_workload, 6, "baseline");
}

TEST(SnapshotReadSweep, BaselineCoopSurvivesFaultsAcrossReadMixes) {
  sweep_read_mixes<harness::BaselineCoopWorkloadOptions>(
      harness::run_baseline_coop_workload, 4, "baseline-coop");
}

TEST(SnapshotReadSweep, FaultlessNinetyFiveFiveActuallyServesReads) {
  // Without faults every stack must serve the overwhelming majority of the
  // ~19 reads-per-update the 95/5 mix issues (the reconfigurable stacks on
  // any replica; the baseline at its caught-up leaders).
  harness::Schedule no_faults;
  auto expect_reads = [&](harness::RunResult r, const char* stack) {
    EXPECT_EQ(r.problems, "") << stack;
    EXPECT_GT(r.reads_attempted, r.submitted * 5) << stack;
    // The reconfigurable stacks serve on any replica; the baseline only at
    // caught-up leaders, which refuse during small apply windows — so the
    // shared floor is a solid majority, not 100%.
    EXPECT_GT(r.reads_served, r.reads_attempted / 2) << stack;
  };
  harness::CommitWorkloadOptions cw;
  cw.total_txns = 40;
  cw.read_fraction = 0.95;
  expect_reads(run_commit_workload(3, cw, no_faults), "commit");
  harness::RdmaWorkloadOptions rw;
  rw.total_txns = 40;
  rw.read_fraction = 0.95;
  expect_reads(run_rdma_workload(3, rw, no_faults), "rdma");
  harness::BaselineWorkloadOptions bw;
  bw.total_txns = 40;
  bw.read_fraction = 0.95;
  expect_reads(run_baseline_workload(3, bw, no_faults), "baseline");
}

TEST(SnapshotReadSweep, ReadMixLeavesTheUpdateTraceUntouched) {
  // The determinism pin of the PR: the read mix draws from its own rng
  // stream and puts nothing on the wire, so for the same seed and schedule
  // the full message-trace fingerprint is IDENTICAL at read_fraction 0.95
  // and 0 — on every stack.  A read path that sent a message, advanced
  // virtual time, or consumed workload randomness would split them.
  auto fingerprints_match = [](auto run_workload, auto base_workload,
                               const char* stack) {
    auto with_mix = [&](double mix) {
      auto w = base_workload;
      w.total_txns = 50;
      w.drain = 4000;
      w.read_fraction = mix;
      Rng r(17);
      return run_workload(17, w, generate_schedule(r, faulty_schedule()));
    };
    harness::RunResult zero = with_mix(0.0);
    harness::RunResult mixed = with_mix(0.95);
    EXPECT_EQ(zero.fingerprint, mixed.fingerprint) << stack;
    EXPECT_EQ(zero.decided, mixed.decided) << stack;
    EXPECT_EQ(zero.reads_attempted, 0u) << stack;
    EXPECT_GT(mixed.reads_attempted, 0u) << stack;
  };
  fingerprints_match(harness::run_commit_workload,
                     harness::CommitWorkloadOptions{}, "commit");
  fingerprints_match(harness::run_rdma_workload, harness::RdmaWorkloadOptions{},
                     "rdma");
  fingerprints_match(harness::run_baseline_workload,
                     harness::BaselineWorkloadOptions{}, "baseline");
}

}  // namespace
}  // namespace ratc
