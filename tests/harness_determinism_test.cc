// Determinism guarantees of the fault-injection harness: a run is a pure
// function of its seed.  Same seed => identical schedule, identical message
// trace (sim::Tracer fingerprint), identical outcome counters, across all
// three protocol stacks; different seeds explore different executions.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "harness/nemesis.h"
#include "harness/schedule.h"
#include "harness/sweep.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace ratc::harness {
namespace {

struct Pulse {
  static constexpr const char* kName = "PULSE";
  int n = 0;
};

ScheduleOptions small_schedule() {
  ScheduleOptions s;
  s.crashes = 1;
  s.reconfigures = 1;
  s.partitions = 1;
  s.delay_windows = 1;
  s.window_hi = 150;
  return s;
}

TEST(ScheduleDeterminism, SameSeedSameSchedule) {
  ScheduleOptions opt = small_schedule();
  opt.drop_windows = 2;
  Rng a(42), b(42);
  EXPECT_EQ(generate_schedule(a, opt).describe(),
            generate_schedule(b, opt).describe());
}

TEST(ScheduleDeterminism, DifferentSeedsDifferentSchedules) {
  ScheduleOptions opt = small_schedule();
  Rng a(1), b(2);
  EXPECT_NE(generate_schedule(a, opt).describe(),
            generate_schedule(b, opt).describe());
}

TEST(ScheduleDeterminism, EventsSortedAndMidWorkload) {
  Rng rng(7);
  ScheduleOptions opt = small_schedule();
  opt.crashes = 3;
  opt.partitions = 2;
  Schedule s = generate_schedule(rng, opt);
  ASSERT_FALSE(s.events.empty());
  for (std::size_t i = 1; i < s.events.size(); ++i) {
    EXPECT_LE(s.events[i - 1].at, s.events[i].at);
  }
  for (const auto& e : s.events) {
    EXPECT_GE(e.at, 0.0);
    EXPECT_LT(e.at, 1.0);
  }
}

CommitWorkloadOptions small_commit_workload() {
  CommitWorkloadOptions w;
  w.total_txns = 60;
  w.drain = 4000;
  return w;
}

TEST(CommitDeterminism, SameSeedIdenticalTrace) {
  CommitWorkloadOptions w = small_commit_workload();
  for (std::uint64_t seed : {3ULL, 11ULL}) {
    Rng r1(seed), r2(seed);
    ScheduleOptions opt = small_schedule();
    Schedule s1 = generate_schedule(r1, opt);
    Schedule s2 = generate_schedule(r2, opt);
    RunResult a = run_commit_workload(seed, w, s1);
    RunResult b = run_commit_workload(seed, w, s2);
    EXPECT_EQ(a.fingerprint, b.fingerprint) << "seed " << seed;
    EXPECT_EQ(a.submitted, b.submitted);
    EXPECT_EQ(a.decided, b.decided);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.problems, b.problems);
  }
}

TEST(CommitDeterminism, DifferentSeedsDifferentTraces) {
  CommitWorkloadOptions w = small_commit_workload();
  std::set<std::uint64_t> fingerprints;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng r(seed);
    Schedule s = generate_schedule(r, small_schedule());
    fingerprints.insert(run_commit_workload(seed, w, s).fingerprint);
  }
  // All four seeds must explore distinct executions.
  EXPECT_EQ(fingerprints.size(), 4u);
}

TEST(CommitDeterminism, NewScheduleShapesAreDeterministicToo) {
  CommitWorkloadOptions w = small_commit_workload();
  ScheduleOptions opt = small_schedule();
  opt.partitions = 0;
  opt.majority_splits = 1;
  opt.one_way_partitions = 1;
  opt.clock_skews = 1;
  Rng r1(21), r2(21);
  RunResult a = run_commit_workload(21, w, generate_schedule(r1, opt));
  RunResult b = run_commit_workload(21, w, generate_schedule(r2, opt));
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.problems, b.problems);
}

TEST(BaselineDeterminism, SameSeedIdenticalTrace) {
  BaselineWorkloadOptions w;
  w.total_txns = 50;
  w.drain = 4000;
  Rng r1(5), r2(5);
  Schedule s1 = generate_schedule(r1, small_schedule());
  Schedule s2 = generate_schedule(r2, small_schedule());
  RunResult a = run_baseline_workload(5, w, s1);
  RunResult b = run_baseline_workload(5, w, s2);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.decided, b.decided);
  EXPECT_EQ(a.problems, b.problems);
}

TEST(BaselineDeterminism, CoopTerminationSameSeedIdenticalTrace) {
  // The termination machinery (failure-detector pings, in-doubt timers,
  // query rounds) must stay a pure function of the seed too.
  BaselineCoopWorkloadOptions w;
  w.total_txns = 50;
  w.drain = 4000;
  Rng r1(5), r2(5);
  Schedule s1 = generate_schedule(r1, small_schedule());
  Schedule s2 = generate_schedule(r2, small_schedule());
  RunResult a = run_baseline_coop_workload(5, w, s1);
  RunResult b = run_baseline_coop_workload(5, w, s2);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.decided, b.decided);
  EXPECT_EQ(a.problems, b.problems);
  // The coop variant explores a different execution than the classical
  // baseline on the same seed and workload (the FD traffic alone separates
  // the traces).
  BaselineWorkloadOptions cw;
  cw.total_txns = w.total_txns;
  cw.drain = w.drain;
  RunResult classical = run_baseline_workload(5, cw, s1);
  EXPECT_NE(a.fingerprint, classical.fingerprint);
}

TEST(RdmaDeterminism, SameSeedIdenticalTrace) {
  RdmaWorkloadOptions w;
  w.total_txns = 50;
  w.drain = 4000;
  Rng r1(5), r2(5);
  Schedule s1 = generate_schedule(r1, small_schedule());
  Schedule s2 = generate_schedule(r2, small_schedule());
  RunResult a = run_rdma_workload(5, w, s1);
  RunResult b = run_rdma_workload(5, w, s2);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.decided, b.decided);
  EXPECT_EQ(a.problems, b.problems);
}

TEST(PaxosDeterminism, SameSeedIdenticalTrace) {
  PaxosWorkloadOptions w;
  w.total_txns = 30;
  Rng r1(9), r2(9);
  Schedule s1 = generate_schedule(r1, small_schedule());
  Schedule s2 = generate_schedule(r2, small_schedule());
  RunResult a = run_paxos_workload(9, w, s1);
  RunResult b = run_paxos_workload(9, w, s2);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.decided, b.decided);
  EXPECT_EQ(a.problems, b.problems);
}

// Golden traces: fixed-seed fingerprints pinned across commits, so a
// refactor that claims bit-identical behaviour is checked rather than
// asserted.  A change that alters a trace on purpose updates these values
// in the same diff.
struct Golden {
  std::size_t batch_size;
  std::uint64_t seed;
  std::uint64_t fingerprint;
  std::size_t decided;
};

template <typename Workload>
Workload golden_workload(std::size_t batch_size) {
  Workload w;
  w.total_txns = 60;
  w.drain = 4000;
  w.check_certifier_index = true;
  w.batch_size = batch_size;
  return w;
}

template <typename Workload, typename Run>
void expect_goldens(const std::vector<Golden>& goldens, Run run) {
  for (const Golden& g : goldens) {
    Rng r(g.seed);
    RunResult res = run(g.seed, golden_workload<Workload>(g.batch_size),
                        generate_schedule(r, small_schedule()));
    EXPECT_EQ(res.fingerprint, g.fingerprint)
        << "batch " << g.batch_size << " seed " << g.seed << ": got 0x" << std::hex
        << res.fingerprint;
    EXPECT_EQ(res.decided, g.decided) << "batch " << g.batch_size << " seed " << g.seed;
  }
}

TEST(TraceGolden, Commit) {
  expect_goldens<CommitWorkloadOptions>(
      {{1, 1, 0x5d92ba5ee0ae20efULL, 60},
       {1, 2, 0x196d6831bc0af8e3ULL, 60},
       {1, 3, 0xe581cbd9a656620cULL, 60},
       {4, 1, 0x49d29804671db80fULL, 60},
       {4, 2, 0x55a73f0082380e03ULL, 60},
       {4, 3, 0x6da75c6cc24fd58aULL, 60}},
      run_commit_workload);
}

TEST(TraceGolden, Rdma) {
  expect_goldens<RdmaWorkloadOptions>(
      {{1, 1, 0xc14013a7b97c0935ULL, 58},
       {1, 2, 0xf6f6eba179278c68ULL, 58},
       {1, 3, 0x0df452efbb12a67bULL, 59},
       {4, 1, 0x4b87a44e7905f3abULL, 59},
       {4, 2, 0x749643cd41db4b80ULL, 60},
       {4, 3, 0x846f6501337268c2ULL, 60}},
      run_rdma_workload);
}

TEST(TraceGolden, Baseline) {
  expect_goldens<BaselineWorkloadOptions>(
      {{1, 1, 0x8f49c8e866532e07ULL, 59},
       {1, 2, 0xca1fea526916ed73ULL, 60},
       {1, 3, 0xe32caf82789b798cULL, 58},
       {4, 1, 0xc0da711a81109642ULL, 60},
       {4, 2, 0x3c2bd26f6acf0ed8ULL, 60},
       {4, 3, 0xade8b50d8d810c83ULL, 58}},
      run_baseline_workload);
}

TEST(TraceGolden, BaselineCoop) {
  expect_goldens<BaselineCoopWorkloadOptions>(
      {{1, 1, 0xf50a81096a560ef8ULL, 60},
       {1, 2, 0xbc0e8744d503d081ULL, 60},
       {1, 3, 0x1c088fb1ff8f2521ULL, 60},
       {4, 1, 0xf6bd9b3cb5364218ULL, 60},
       {4, 2, 0xa15c11803f6235a4ULL, 60},
       {4, 3, 0x19d1cd01efb8c2bbULL, 60}},
      run_baseline_coop_workload);
}

TEST(TraceGolden, PaxosCommit) {
  expect_goldens<PaxosCommitWorkloadOptions>(
      {{1, 1, 0xdcfc5887b7078eb7ULL, 60},
       {1, 2, 0xb0b9e4366cfa80ebULL, 60},
       {1, 3, 0xa7cadbe4eca47d03ULL, 60},
       {4, 1, 0x25d4848a203fe602ULL, 60},
       {4, 2, 0x2ccb3cec3a4f2d44ULL, 60},
       {4, 3, 0x0bd109aaa0e3bb73ULL, 60}},
      run_paxos_commit_workload);
}

TEST(ParallelSweepDeterminism, PerSeedFingerprintsIndependentOfThreadCount) {
  // Every run is seed-isolated, so the thread pool must be invisible: the
  // same sweep on 1 thread, 2 threads and hardware concurrency yields the
  // same per-seed fingerprints and the same aggregate.
  constexpr int kSeeds = 8;
  CommitWorkloadOptions w = small_commit_workload();
  // Liveness is not under test here; a partitioned-then-crashed coordinator
  // may legitimately strand a chunk of a 60-txn run.
  w.min_decided_fraction = 0.5;
  ScheduleOptions opt = small_schedule();
  auto fingerprints = [&](unsigned threads) {
    std::vector<std::uint64_t> fp(kSeeds, 0);
    SweepResult sweep = parallel_sweep_seeds(
        1, kSeeds,
        [&](std::uint64_t seed) {
          Rng r(seed);
          RunResult res = run_commit_workload(seed, w, generate_schedule(r, opt));
          fp[seed - 1] = res.fingerprint;  // distinct slot per seed: race-free
          return res;
        },
        threads);
    EXPECT_TRUE(sweep.ok()) << sweep.report();
    EXPECT_EQ(sweep.runs, kSeeds);
    return fp;
  };
  std::vector<std::uint64_t> one = fingerprints(1);
  EXPECT_EQ(one, fingerprints(2));
  EXPECT_EQ(one, fingerprints(0));  // 0 = hardware concurrency
  for (std::uint64_t f : one) EXPECT_NE(f, 0u);
}

TEST(ParallelSweepDeterminism, AggregatesMatchSequentialSweep) {
  constexpr int kSeeds = 6;
  BaselineWorkloadOptions w;
  w.total_txns = 40;
  w.drain = 4000;
  ScheduleOptions opt = small_schedule();
  auto run = [&](std::uint64_t seed) {
    Rng r(seed);
    return run_baseline_workload(seed, w, generate_schedule(r, opt));
  };
  SweepResult seq = sweep_seeds(1, kSeeds, run);
  SweepResult par = parallel_sweep_seeds(1, kSeeds, run, 3);
  EXPECT_EQ(seq.runs, par.runs);
  EXPECT_EQ(seq.total_submitted, par.total_submitted);
  EXPECT_EQ(seq.total_decided, par.total_decided);
  EXPECT_EQ(seq.total_committed, par.total_committed);
  EXPECT_EQ(seq.failures.size(), par.failures.size());
}

/// Message sink: records who delivered and when.
class Sink : public sim::Process {
 public:
  Sink(sim::Simulator& sim, ProcessId id)
      : Process(sim, id, "sink" + std::to_string(id)) {}
  void on_message(ProcessId from, const sim::AnyMessage&) override {
    arrivals.emplace_back(from, rt().now());
  }
  std::vector<std::pair<ProcessId, Time>> arrivals;
};

TEST(NemesisWindows, OneWayPartitionBlocksOnlyOneDirection) {
  sim::Simulator sim(11);
  sim::Network net(sim, sim::Network::unit_delay_options());
  Sink a(sim, 1), b(sim, 2);
  sim.add_process(&a);
  sim.add_process(&b);
  Nemesis nemesis(sim, 11);
  net.set_fault_injector(&nemesis);
  // Victim 2 is deaf (inbound blocked) but not mute.
  nemesis.isolate_one_way({2}, 100, /*inbound_blocked=*/true, /*lossy=*/true);
  for (int i = 0; i < 10; ++i) {
    net.send_msg(1, 2, Pulse{i});  // blocked
    net.send_msg(2, 1, Pulse{i});  // flows
  }
  sim.run();
  EXPECT_EQ(nemesis.dropped(), 10u);
  EXPECT_EQ(b.arrivals.size(), 0u);   // deaf
  EXPECT_EQ(a.arrivals.size(), 10u);  // but not mute
}

TEST(NemesisWindows, ClockSkewDelaysOnlyTheSkewedSender) {
  sim::Simulator sim(13);
  sim::Network net(sim, sim::Network::unit_delay_options());
  Sink sink(sim, 3);
  sim.add_process(&sink);
  Nemesis nemesis(sim, 13);
  net.set_fault_injector(&nemesis);
  nemesis.skew_clocks({2}, /*skew=*/40, /*len=*/100);
  net.send_msg(1, 3, Pulse{0});
  net.send_msg(2, 3, Pulse{1});
  sim.run();
  EXPECT_EQ(nemesis.skewed(), 1u);
  ASSERT_EQ(sink.arrivals.size(), 2u);
  for (const auto& [from, at] : sink.arrivals) {
    if (from == 1) {
      EXPECT_EQ(at, 1u);  // unit delay, unaffected
    }
    if (from == 2) {
      EXPECT_EQ(at, 41u);  // unit delay + 40 ticks of skew
    }
  }
}

TEST(NemesisDeterminism, IdleInjectorDoesNotPerturbExecution) {
  // Run identical traffic with and without an installed (idle) nemesis.
  // Every message flows through Nemesis::on_message in the second run, yet
  // the fault-free execution — delay samples from the simulator's Rng and
  // the resulting trace — must be bit-identical to the first.
  auto run = [](bool with_nemesis) {
    sim::Simulator sim(123);
    sim::Network net(sim, sim::Network::exponential_delay_options(3.0));
    sim::Tracer tracer;
    net.add_observer(&tracer);
    Nemesis nemesis(sim, 99);
    if (with_nemesis) net.set_fault_injector(&nemesis);
    for (int i = 0; i < 50; ++i) {
      net.send_msg(1, 2, Pulse{i});
      net.send_msg(2, 1, Pulse{i});
      sim.run();
    }
    return std::make_pair(tracer.render(), sim.rng().next());
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(NemesisDeterminism, ActiveWindowsDrawOnlyFromOwnRng) {
  // An active drop window consults the nemesis's own Rng per message; two
  // nemeses with the same seed over the same traffic must drop the exact
  // same messages.
  auto run = [] {
    sim::Simulator sim(7);
    sim::Network net(sim, sim::Network::unit_delay_options());
    sim::Tracer tracer;
    net.add_observer(&tracer);
    Nemesis nemesis(sim, 7);
    net.set_fault_injector(&nemesis);
    nemesis.drop_messages(0.3, 1'000'000);
    for (int i = 0; i < 200; ++i) net.send_msg(1, 2, Pulse{i});
    sim.run();
    return std::make_pair(tracer.render(), nemesis.dropped());
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a, b);
  EXPECT_GT(a.second, 0u);
  EXPECT_LT(a.second, 200u);
}

TEST(NemesisWindows, HeldMessagesAreExemptFromDropWindows) {
  // A non-lossy partition guarantees eventual delivery; an overlapping drop
  // window must not eat the held-back messages.
  sim::Simulator sim(3);
  sim::Network net(sim, sim::Network::unit_delay_options());
  sim::Tracer tracer;
  net.add_observer(&tracer);
  Nemesis nemesis(sim, 3);
  net.set_fault_injector(&nemesis);
  nemesis.isolate({2}, 100, /*lossy=*/false);
  nemesis.drop_messages(1.0, 100);  // would drop everything if consulted
  for (int i = 0; i < 20; ++i) net.send_msg(1, 2, Pulse{i});
  sim.run();
  EXPECT_EQ(nemesis.dropped(), 0u);
  EXPECT_EQ(nemesis.held_at_partition(), 20u);
}

TEST(NemesisWindows, PartitionExpiresOnItsOwn) {
  sim::Simulator sim(1);
  Nemesis nemesis(sim, 1);
  nemesis.isolate({7}, 50);
  EXPECT_TRUE(nemesis.partition_active());
  sim.schedule(60, [] {});
  sim.run();
  EXPECT_FALSE(nemesis.partition_active());
}

}  // namespace
}  // namespace ratc::harness
