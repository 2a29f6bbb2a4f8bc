// Termination-targeted nemesis schedules: instead of the generic fault
// sweeps (harness_fault_injection_test.cc), these strikes are aimed at the
// classical 2PC vulnerability — the coordinator is crashed in the window
// between prepare-acks and the decision broadcast of an in-flight
// transaction, then the shard heals by electing a survivor.  Swept across
// all four rungs of the comparison ladder (classical 2PC, cooperative-
// termination 2PC, Paxos Commit, and the paper protocol) on identical
// per-seed strike timings, plus a false-suspicion partition schedule
// against the cooperative variant (termination racing a live coordinator
// must stay safe).
//
// Failures print one RunResult::summary() line per seed — the reproduction
// recipe (tests/README.md).
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <type_traits>

#include "harness/nemesis.h"
#include "harness/sweep.h"
#include "tcs/shard_map.h"

namespace ratc::harness {
namespace {

using tcs::Decision;
using tcs::Payload;

const int kSeeds = sweep_seed_count(20);
constexpr std::uint64_t kFirstSeed = 1;

/// Crashes the machinery around transaction p right in its decision window.
/// Baseline stack, in every termination mode: the 2PC coordinator (the
/// leader of p's first shard) is crashed and a survivor is elected.  Commit
/// stack: a member of that shard is crashed and the shard reconfigures —
/// the paper's recovery lever.
template <typename Harness>
void strike_decision_window(Harness& h, const Payload& p,
                            std::set<ShardId>& struck, Rng& fault_rng) {
  tcs::ShardMap map(h.num_shards());
  std::vector<ShardId> parts = map.shards_of(p);
  if (parts.empty()) return;
  ShardId s = parts.front();
  if constexpr (std::is_base_of_v<store::BaselineHarness, Harness>) {
    // One strike per shard: 2f+1 = 3 tolerates a single permanent crash.
    if (struck.count(s) > 0) return;
    auto& cluster = h.cluster();
    ProcessId coordinator = cluster.leader_server(s);
    if (h.sim().crashed(coordinator)) return;
    struck.insert(s);
    cluster.crash_server(coordinator);
    for (ProcessId m : cluster.shard_servers(s)) {
      if (!h.sim().crashed(m)) {
        cluster.elect_leader(s, m);  // heal: a survivor takes over
        break;
      }
    }
  } else {
    h.crash_and_reconfigure(fault_rng, s);
  }
}

/// One seeded run: the shared contended workload with three decision-window
/// strikes at fixed transaction indices; strike offsets (2..8 ticks after
/// submission) sample the whole 2PC round, from mid-prepare to
/// decision-broadcast.  Checks mirror the generic FaultDriver: stack
/// verifier, linearization DFS when small enough, and the workload's
/// decided-fraction floor.
template <typename Harness>
RunResult run_decision_window_crashes(std::uint64_t seed,
                                      const typename Harness::Workload& w) {
  Harness h(seed, w);
  Rng workload_rng(seed ^ Harness::kWorkloadSalt);
  Rng fault_rng(seed ^ 0xdec15107ULL);
  store::ContendedPayloadGen gen(workload_rng, w.object_universe);
  std::map<TxnId, Payload> payloads;
  h.set_on_decision([&](TxnId t, Decision d) {
    if (d != Decision::kCommit) return;
    auto it = payloads.find(t);
    if (it != payloads.end()) gen.observe_commit(it->second);
  });

  RunResult r;
  r.seed = seed;
  std::set<ShardId> struck;
  const int q = w.total_txns / 4;
  for (int i = 0; i < w.total_txns; ++i) {
    Payload p = gen.next();
    TxnId t = h.next_txn_id();
    payloads[t] = p;
    bool submitted = h.submit(workload_rng, t, p);
    if (!submitted) payloads.erase(t);
    if (submitted && (i == q || i == 2 * q || i == 3 * q)) {
      // 4..8 ticks after submission: prepare-acks are back (or nearly so)
      // and the decision is being replicated but not yet broadcast — the
      // window the termination protocol exists for.
      h.sim().run_until(h.sim().now() + fault_rng.range(4, 8));
      strike_decision_window(h, p, struck, fault_rng);
    }
    h.sim().run_until(h.sim().now() + workload_rng.range(0, Harness::kPaceHi));
  }
  h.drain(w.drain, workload_rng);

  r.submitted = payloads.size();
  apply_end_of_run_checks(r, h, w);
  return r;
}

double committed_fraction(const SweepResult& r) {
  return static_cast<double>(r.total_committed) /
         static_cast<double>(r.total_submitted);
}
double decided_fraction(const SweepResult& r) {
  return static_cast<double>(r.total_decided) /
         static_cast<double>(r.total_submitted);
}

TEST(TerminationNemesis, DecisionWindowCoordinatorCrashesFourWay) {
  // The aimed version of BaselineVsCommit: every strike kills a coordinator
  // mid-round.  Classical 2PC strands the in-flight backlog and poisons its
  // objects; cooperative termination recovers every transaction whose peers
  // decided or never prepared (only the all-prepared window stays blocked);
  // Paxos Commit recovers even the all-prepared window, because the votes
  // themselves are replicated facts; the paper protocol recovers everything
  // by reconfiguring.
  store::StackWorkload shared;
  shared.total_txns = 100;
  shared.min_decided_fraction = 0.0;  // blocking is exactly what is measured

  BaselineWorkloadOptions bw;
  bw.total_txns = shared.total_txns;
  bw.min_decided_fraction = 0.0;
  SweepResult classical =
      parallel_sweep_seeds(kFirstSeed, kSeeds, [&](std::uint64_t seed) {
        return run_decision_window_crashes<store::BaselineHarness>(seed, bw);
      });
  EXPECT_TRUE(classical.ok()) << classical.report();

  BaselineCoopWorkloadOptions pw;
  pw.total_txns = shared.total_txns;
  pw.min_decided_fraction = 0.0;
  SweepResult coop =
      parallel_sweep_seeds(kFirstSeed, kSeeds, [&](std::uint64_t seed) {
        return run_decision_window_crashes<store::BaselineCoopHarness>(seed, pw);
      });
  EXPECT_TRUE(coop.ok()) << coop.report();

  PaxosCommitWorkloadOptions xw;
  xw.total_txns = shared.total_txns;
  xw.min_decided_fraction = 0.9;  // non-blocking: must recover the backlog
  SweepResult pc =
      parallel_sweep_seeds(kFirstSeed, kSeeds, [&](std::uint64_t seed) {
        return run_decision_window_crashes<store::PaxosCommitHarness>(seed, xw);
      });
  EXPECT_TRUE(pc.ok()) << pc.report();

  CommitWorkloadOptions cw;
  cw.total_txns = shared.total_txns;
  cw.min_decided_fraction = 0.9;  // the paper protocol must recover
  SweepResult commit =
      parallel_sweep_seeds(kFirstSeed, kSeeds, [&](std::uint64_t seed) {
        return run_decision_window_crashes<store::CommitHarness>(seed, cw);
      });
  EXPECT_TRUE(commit.ok()) << commit.report();

  std::printf("decision-window strikes: classical decided=%.4f committed=%.4f | "
              "coop decided=%.4f committed=%.4f blocked=%llu | "
              "paxos-commit decided=%.4f committed=%.4f blocked=%llu | "
              "commit decided=%.4f committed=%.4f\n",
              decided_fraction(classical), committed_fraction(classical),
              decided_fraction(coop), committed_fraction(coop),
              static_cast<unsigned long long>(coop.total_term_blocked),
              decided_fraction(pc), committed_fraction(pc),
              static_cast<unsigned long long>(pc.total_term_blocked),
              decided_fraction(commit), committed_fraction(commit));

  // Cooperative termination recovers most of the stranded backlog: the
  // still-undecided remainder must be well under the classical strawman's.
  double classical_blocked = 1.0 - decided_fraction(classical);
  double coop_blocked = 1.0 - decided_fraction(coop);
  EXPECT_GT(decided_fraction(coop), decided_fraction(classical));
  EXPECT_LT(coop_blocked, 0.7 * classical_blocked);
  // Unpoisoning the resolvable objects lifts the committed fraction...
  EXPECT_GT(committed_fraction(coop), committed_fraction(classical) + 0.01);
  // ...but the all-prepared window keeps it at or below Paxos Commit and
  // the paper protocol.
  EXPECT_LE(committed_fraction(coop), committed_fraction(pc) + 0.02);
  EXPECT_LE(committed_fraction(coop), committed_fraction(commit) + 0.02);
  // The ladder's pivot: cooperative termination hits the all-prepared wall
  // on these schedules (give-ups > 0), while Paxos Commit — votes chosen by
  // per-shard Paxos instances — never blocks at all.
  EXPECT_GT(coop.total_term_blocked, 0u);
  EXPECT_EQ(pc.total_term_blocked, 0u);
  // Paxos Commit recovers essentially the whole backlog, like the paper
  // protocol does.
  EXPECT_GT(decided_fraction(pc), decided_fraction(coop));
}

TEST(TerminationNemesis, FalseSuspicionPartitionsStaySafe) {
  // Partition coordinator machines (held-back, so eventual delivery holds)
  // long enough for the failure detector to falsely suspect a *live*
  // coordinator, then heal.  Termination rounds race the coordinator's own
  // decisions; the tombstone/log-order arbitration must keep every replica
  // and client in agreement.
  BaselineCoopWorkloadOptions w;
  w.total_txns = 100;
  w.min_decided_fraction = 0.4;  // a partitioned leader stalls its backlog
  SweepResult sweep =
      parallel_sweep_seeds(kFirstSeed, kSeeds, [&](std::uint64_t seed) {
        store::BaselineCoopHarness h(seed, w);
        Nemesis nemesis(h.sim(), seed ^ 0x5a5aULL);
        h.install_fault_injector(&nemesis);
        Rng workload_rng(seed ^ store::BaselineCoopHarness::kWorkloadSalt);
        Rng fault_rng(seed ^ 0xfa15e505ULL);
        store::ContendedPayloadGen gen(workload_rng, w.object_universe);
        std::map<TxnId, Payload> payloads;
        h.set_on_decision([&](TxnId t, Decision d) {
          if (d != Decision::kCommit) return;
          auto it = payloads.find(t);
          if (it != payloads.end()) gen.observe_commit(it->second);
        });
        RunResult r;
        r.seed = seed;
        for (int i = 0; i < w.total_txns; ++i) {
          Payload p = gen.next();
          TxnId t = h.next_txn_id();
          payloads[t] = p;
          if (!h.submit(workload_rng, t, p)) payloads.erase(t);
          if (i == w.total_txns / 3 || i == (2 * w.total_txns) / 3) {
            // Cut off a random shard's leader machine well past the
            // suspicion threshold, without crashing anything.
            ShardId s = static_cast<ShardId>(fault_rng.below(h.num_shards()));
            ProcessId leader = h.cluster().leader_server(s);
            nemesis.isolate({leader}, /*len=*/150, /*lossy=*/false);
          }
          h.sim().run_until(h.sim().now() +
                            workload_rng.range(0, store::BaselineCoopHarness::kPaceHi));
        }
        h.sim().run_until(h.sim().now() + w.drain / 2);
        nemesis.clear();
        h.drain(w.drain, workload_rng);
        r.submitted = payloads.size();
        r.held = nemesis.held_at_partition();
        apply_end_of_run_checks(r, h, w);
        return r;
      });
  EXPECT_TRUE(sweep.ok()) << sweep.report();
}

}  // namespace
}  // namespace ratc::harness
