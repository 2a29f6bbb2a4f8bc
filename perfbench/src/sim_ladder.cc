// sim-ladder: the four stacks on the deterministic simulator with unit
// delay — store::CommitHarness, RdmaHarness, BaselineCoopHarness and
// PaxosCommitHarness — each with one seed and one payload stream.
//
// Per stack: 3 shards (f+1 = 2 replicas plus spares for the reconfigurable
// stacks, 2f+1 = 3 servers for the consensus-per-shard ones) over 64
// contended objects.  One operation is due every tick for 12,000 ticks,
// open loop on that fixed virtual-time schedule: every 20th is an update
// (5%), the rest are snapshot reads through snapshot_read, and a refused
// read is retried on the next tick.  At ticks 3,000, 6,000 and 9,000
// the leader of shard 0, 1 and 2 crashes and each stack repairs itself its
// own way (reconfiguration onto a spare, or a leader election).  After a
// drain the harnesses' end-of-run checkers run.
//
// The ladder repeats, each repetition on its own seed derived from the run's
// seed, until the run's time is used.  Timed figures are medians over
// repetitions; counts come from the first repetition, which is run a second
// time to check that every count repeats exactly.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>

#include "calibrate.h"
#include "catalog.h"
#include "payload_gen.h"
#include "replay.h"
#include "stats.h"
#include "store/stack_harness.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using ratc::ProcessId;
using ratc::ShardId;
using ratc::Time;
using ratc::TxnId;
namespace store = ratc::store;
namespace tcs = ratc::tcs;

constexpr std::uint32_t kShards = 3;
constexpr ratc::ObjectId kKeys = 64;
constexpr Time kTicks = 12000;
constexpr Time kUpdateEvery = 20;
constexpr Time kStrikeTicks[3] = {3000, 6000, 9000};
constexpr ratc::Duration kDrain = 4000;

/// One stack's run.  Counts are exact functions of the seed; the rest is
/// timings.
struct StackRun {
  std::string name;
  // Counts.
  std::uint64_t updates = 0, decided = 0, committed = 0, msgs = 0, events = 0;
  std::uint64_t read_calls = 0, reads = 0, read_refusals = 0;
  std::uint64_t reads_unserved = 0, fabric_writes = 0;
  std::vector<double> lat_ticks, unavail_ticks, epoch_ticks;
  ratc::recon::EngineStats recon;
  ratc::baseline::TerminationStats term;
  // Timings: setup_s and sim_cpu_s in CPU time, the rest wall clock.
  double setup_s = 0, sim_s = 0, sim_cpu_s = 0, verify_s = 0, snapshot_s = 0;
  std::vector<double> lat_us, read_us;
  std::map<std::string, TypeTraffic> traffic;  ///< traced runs only
  std::vector<Span> spans;                     ///< traced runs only

  std::uint64_t undecided() const { return updates - decided; }
  /// Everything that must repeat exactly between repetitions.
  std::string signature() const {
    std::string s = name;
    for (std::uint64_t v : {updates, decided, committed, msgs, events, read_calls, reads,
                            read_refusals, reads_unserved, fabric_writes}) {
      s += "," + std::to_string(v);
    }
    for (const auto* v : {&lat_ticks, &unavail_ticks, &epoch_ticks}) {
      double sum = 0;
      for (double x : *v) sum = sum * 31 + x;
      s += "," + std::to_string(v->size()) + ":" + std::to_string(sum);
    }
    return s;
  }
};

struct Submitted {
  Time tick = 0;
  std::int64_t wall_ns = 0;
  tcs::Payload payload;
  std::set<ShardId> shards;
};

// --- per-stack levers -------------------------------------------------------

void strike(store::CommitHarness& h, ShardId s) {
  ratc::commit::Cluster& c = h.cluster();
  ratc::configsvc::ShardConfig cfg = c.current_config(s);
  for (ProcessId m : cfg.members) {
    if (m == cfg.leader || c.sim().crashed(m)) continue;
    c.crash(cfg.leader);
    c.reconfigure(s, m);
    return;
  }
}

void strike(store::RdmaHarness& h, ShardId s) {
  ratc::rdma::Cluster& c = h.cluster();
  ratc::configsvc::ShardConfig cfg = c.current_config(s);
  for (ProcessId m : cfg.members) {
    if (m == cfg.leader || c.sim().crashed(m)) continue;
    c.crash(cfg.leader);
    c.replica_by_pid(m).reconfigure();
    return;
  }
}

template <class H>
void strike_leader_server(H& h, ShardId s) {
  auto& c = h.cluster();
  ProcessId leader = c.leader_server(s);
  for (ProcessId m : c.shard_servers(s)) {
    if (m == leader || c.sim().crashed(m)) continue;
    c.crash_server(leader);
    c.elect_leader(s, m);
    return;
  }
}
void strike(store::BaselineCoopHarness& h, ShardId s) { strike_leader_server(h, s); }
void strike(store::PaxosCommitHarness& h, ShardId s) { strike_leader_server(h, s); }

/// The epoch shard s runs at once its leader has activated it; 0 before.
ratc::Epoch active_epoch(store::CommitHarness& h, ShardId s) {
  ratc::configsvc::ShardConfig cfg = h.cluster().current_config(s);
  if (h.sim().crashed(cfg.leader)) return 0;
  return h.cluster().replica_by_pid(cfg.leader).epoch() == cfg.epoch ? cfg.epoch : 0;
}
ratc::Epoch active_epoch(store::RdmaHarness& h, ShardId s) {
  ratc::configsvc::ShardConfig cfg = h.cluster().current_config(s);
  if (h.sim().crashed(cfg.leader)) return 0;
  ratc::Epoch e = h.cluster().current_epoch();
  return h.cluster().replica_by_pid(cfg.leader).epoch() == e ? e : 0;
}

template <class H>
constexpr bool kReconfigurable =
    std::is_same_v<H, store::CommitHarness> || std::is_same_v<H, store::RdmaHarness>;

// --- one stack ----------------------------------------------------------------

template <class H>
StackRun run_stack(const std::string& name, std::uint64_t seed, bool traced,
                   const std::function<void(H&, const std::vector<tcs::Payload>&)>& inspect) {
  StackRun run;
  run.name = name;
  store::StackWorkload w;
  w.num_shards = kShards;
  w.shard_size = kReconfigurable<H> ? 2 : 3;
  w.object_universe = kKeys;

  const std::int64_t setup_cpu0 = thread_cpu_ns();
  H h(seed, w);
  run.setup_s = static_cast<double>(thread_cpu_ns() - setup_cpu0) / 1e9;
  TraceTap tap;
  if (traced) h.cluster().net().add_observer(&tap);

  VersionView view(kKeys);
  PayloadGen updates(derive_seed(seed, 1), view, nullptr);
  PayloadGen reads(derive_seed(seed, 2), view, nullptr);
  ratc::Rng submit_rng(derive_seed(seed, 3));
  ratc::Rng read_rng(derive_seed(seed, 4));
  const tcs::ShardMap map(kShards);

  std::unordered_map<TxnId, Submitted> submitted;
  std::vector<tcs::Payload> payloads;
  struct Strike {
    Time tick;
    ShardId shard;
    ratc::Epoch epoch_before = 0;
    bool served = false, activated = false;
  };
  std::vector<Strike> strikes;
  for (std::size_t i = 0; i < 3; ++i) strikes.push_back({kStrikeTicks[i], static_cast<ShardId>(i)});

  h.set_on_decision([&](TxnId txn, tcs::Decision d) {
    auto it = submitted.find(txn);
    if (it == submitted.end()) return;
    const Time now = h.sim().now();
    ++run.decided;
    run.lat_ticks.push_back(static_cast<double>(now - it->second.tick));
    run.lat_us.push_back(static_cast<double>(now_ns() - it->second.wall_ns) / 1000.0);
    if (d == tcs::Decision::kCommit) {
      ++run.committed;
      view.observe_commit(it->second.payload);
    }
    for (Strike& s : strikes) {
      if (s.served || now < s.tick || it->second.tick < s.tick) continue;
      if (it->second.shards.count(s.shard) == 0) continue;
      s.served = true;
      run.unavail_ticks.push_back(static_cast<double>(now - s.tick));
    }
  });

  std::vector<std::vector<ratc::ObjectId>> pending_reads;
  auto try_read = [&](const std::vector<ratc::ObjectId>& objs) {
    ++run.read_calls;
    std::int64_t r0 = now_ns();
    bool served = h.snapshot_read(read_rng, objs);
    if (served) {
      run.read_us.push_back(static_cast<double>(now_ns() - r0) / 1000.0);
    } else {
      ++run.read_refusals;
    }
    return served;
  };

  std::int64_t sim0 = now_ns();
  const std::int64_t cpu0 = thread_cpu_ns();
  for (Time tick = 1; tick <= kTicks; ++tick) {
    h.sim().run_until(tick);
    for (Strike& s : strikes) {
      if (tick == s.tick) {
        if constexpr (kReconfigurable<H>) s.epoch_before = active_epoch(h, s.shard);
        strike(h, s.shard);
      }
      if constexpr (kReconfigurable<H>) {
        if (tick > s.tick && !s.activated && active_epoch(h, s.shard) > s.epoch_before) {
          s.activated = true;
          run.epoch_ticks.push_back(static_cast<double>(tick - s.tick));
        }
      }
    }
    std::vector<std::vector<ratc::ObjectId>> retry;
    retry.swap(pending_reads);
    for (auto& objs : retry) {
      if (!try_read(objs)) pending_reads.push_back(std::move(objs));
    }
    if (tick % kUpdateEvery == 0) {
      TxnId txn = h.next_txn_id();
      Submitted sub{tick, now_ns(), updates.next(), {}};
      for (ShardId s : map.shards_of(sub.payload)) sub.shards.insert(s);
      payloads.push_back(sub.payload);
      tcs::Payload p = sub.payload;
      submitted.emplace(txn, std::move(sub));
      ++run.updates;
      h.submit(submit_rng, txn, p);  // unsent (no live coordinator) stays undecided
    } else {
      ++run.reads;
      std::vector<ratc::ObjectId> objs = reads.next_read_set();
      if (!try_read(objs)) pending_reads.push_back(std::move(objs));
    }
  }
  h.drain(kDrain, submit_rng);
  for (auto& objs : pending_reads) {
    if (!try_read(objs)) ++run.reads_unserved;
  }
  run.sim_s = seconds_since(sim0);
  run.sim_cpu_s = static_cast<double>(thread_cpu_ns() - cpu0) / 1e9;
  for (const Strike& s : strikes) {
    if (!s.served) run.unavail_ticks.push_back(static_cast<double>(h.sim().now() - s.tick));
  }
  run.msgs = h.cluster().net().total_messages();
  run.events = h.sim().events_executed();
  if (traced) {
    run.traffic = tap.traffic();
    run.spans = tap.spans();
  }

  if constexpr (kReconfigurable<H>) run.recon = h.engine_stats();
  if constexpr (!kReconfigurable<H>) run.term = h.termination_stats();
  if constexpr (std::is_same_v<H, store::RdmaHarness>) {
    run.fabric_writes = h.cluster().fabric().writes_sent();
  }
  if (inspect) inspect(h, payloads);

  std::string problems;
  std::int64_t c0 = now_ns();
  problems = h.verify();
  run.verify_s = seconds_since(c0);
  c0 = now_ns();
  std::string snap = h.check_snapshot_reads();
  run.snapshot_s = seconds_since(c0);
  if (!snap.empty()) problems += (problems.empty() ? "" : "; ") + snap;
  if constexpr (kReconfigurable<H>) {
    std::string ledger = h.spare_ledger_verdict();
    if (!ledger.empty()) problems += (problems.empty() ? "" : "; ") + ledger;
  }
  if (!problems.empty()) throw std::runtime_error(name + ": " + problems);
  return run;
}

struct LadderRep {
  std::vector<StackRun> stacks;
  bool traced = false;
  double setup_s = 0, sim_s = 0, sim_cpu_s = 0, checker_s = 0;
  std::uint64_t decided = 0, committed = 0;
  std::vector<double> lat_us, read_us;
  // Summaries of lat_us and read_us, which summarize() then frees, so the
  // process's peak memory does not grow with the number of repetitions.
  double lat_p50 = 0, lat_p99 = 0, read_p50 = 0, read_p99 = 0, read_s = 0;
};

void summarize(LadderRep& r) {
  r.lat_p50 = percentile(r.lat_us, 0.5);
  r.lat_p99 = tail_percentile(r.lat_us, 0.99);
  r.read_p50 = percentile(r.read_us, 0.5);
  r.read_p99 = tail_percentile(r.read_us, 0.99);
  for (double us : r.read_us) r.read_s += us / 1e6;
  r.lat_us = {};
  r.read_us = {};
  for (StackRun& s : r.stacks) {
    s.lat_us = {};
    s.read_us = {};
  }
}

LadderRep run_ladder(std::uint64_t seed, bool traced, Report* layers) {
  LadderRep rep;
  rep.traced = traced;
  std::function<void(store::CommitHarness&, const std::vector<tcs::Payload>&)> inspect_commit;
  if (layers != nullptr) {
    // Layer replays on the commit stack's final state and payloads.
    inspect_commit = [layers](store::CommitHarness& h, const std::vector<tcs::Payload>& p) {
      std::vector<const ratc::commit::Replica*> leaders;
      std::vector<ratc::ObjectId> objects;
      for (ShardId s = 0; s < kShards; ++s) {
        ProcessId leader = h.cluster().current_config(s).leader;
        if (!h.sim().crashed(leader)) leaders.push_back(&h.cluster().replica_by_pid(leader));
      }
      for (ratc::ObjectId o = 0; o < kKeys; ++o) objects.push_back(o);
      replay_read_path(leaders, objects, *layers);
      replay_log_layers(p, h.cluster().certifier(), kShards, *layers);
    };
  }
  rep.stacks.push_back(
      run_stack<store::CommitHarness>("commit", derive_seed(seed, 10), traced, inspect_commit));
  rep.stacks.push_back(
      run_stack<store::RdmaHarness>("rdma", derive_seed(seed, 11), traced, nullptr));
  rep.stacks.push_back(run_stack<store::BaselineCoopHarness>(
      "baseline-coop", derive_seed(seed, 12), traced, nullptr));
  rep.stacks.push_back(run_stack<store::PaxosCommitHarness>(
      "paxos-commit", derive_seed(seed, 13), traced, nullptr));
  for (const StackRun& s : rep.stacks) {
    rep.setup_s += s.setup_s;
    rep.sim_s += s.sim_s;
    rep.sim_cpu_s += s.sim_cpu_s;
    rep.checker_s += s.verify_s + s.snapshot_s;
    rep.decided += s.decided;
    rep.committed += s.committed;
    rep.lat_us.insert(rep.lat_us.end(), s.lat_us.begin(), s.lat_us.end());
    rep.read_us.insert(rep.read_us.end(), s.read_us.begin(), s.read_us.end());
  }
  return rep;
}

double ratio(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(a) / static_cast<double>(std::max<std::uint64_t>(1, b));
}

}  // namespace

Outcome run_sim_ladder(const RunOptions& opt) {
  Outcome out;
  // Repetition i runs the ladder on its own seed, so the wall-clock medians
  // average over many crash outcomes instead of hinging on one.
  auto rep_seed = [&opt](std::size_t i) { return derive_seed(opt.seed, 1000 + i); };
  out.seeds.push_back({"repetition0", rep_seed(0)});
  std::vector<LadderRep> reps;
  const std::int64_t start = now_ns();
  HostSpeed speed;
  try {
    do {
      // Traced runs alternate untraced and traced repetitions; the first
      // traced one also replays the layers.
      const bool traced = opt.trace && reps.size() % 2 == 1;
      Report* layers = traced && reps.size() == 1 ? &out.report : nullptr;
      reps.push_back(run_ladder(rep_seed(reps.size()), traced, layers));
      summarize(reps.back());
      speed.sample();
    } while (seconds_since(start) < opt.seconds || (opt.trace && reps.size() < 2));
    // Determinism: repetition 0 run again must repeat every count.
    LadderRep again = run_ladder(rep_seed(0), false, nullptr);
    for (std::size_t i = 0; i < again.stacks.size(); ++i) {
      if (again.stacks[i].signature() != reps.front().stacks[i].signature()) {
        out.fail("sim-ladder counts differ between two runs of one seed for " +
                 again.stacks[i].name);
      }
    }
  } catch (const std::exception& e) {
    out.fail(e.what());
    return out;
  }
  out.seeds.push_back({"repetitions", reps.size()});
  const LadderRep& first = reps.front();

  // Exact counts from the first repetition.
  std::uint64_t updates = 0, msgs = 0, events = 0, read_calls = 0, reads = 0, refusals = 0,
                unserved = 0, undecided = 0;
  std::vector<double> lat_ticks, unavail, epoch_ticks;
  for (const StackRun& s : first.stacks) {
    updates += s.updates;
    msgs += s.msgs;
    events += s.events;
    read_calls += s.read_calls;
    reads += s.reads;
    refusals += s.read_refusals;
    unserved += s.reads_unserved;
    undecided += s.undecided();
    lat_ticks.insert(lat_ticks.end(), s.lat_ticks.begin(), s.lat_ticks.end());
    unavail.insert(unavail.end(), s.unavail_ticks.begin(), s.unavail_ticks.end());
    epoch_ticks.insert(epoch_ticks.end(), s.epoch_ticks.begin(), s.epoch_ticks.end());
  }
  const std::uint64_t served = read_calls - refusals;
  out.attempted = updates + reads;
  out.failed = undecided + unserved;

  // Timed figures: medians over the untraced repetitions.  End-to-end ones,
  // commit_tps, sim_txn_per_s and the traced rate are calibrated to the
  // nominal host speed with the run's factor; layer timings are raw.
  const double f = speed.factor();
  std::vector<double> cpu_us, tps, p50, p99, setup, read50, read99, txn_per_s, event_ns;
  std::map<std::string, std::vector<double>> stack_sim_s;
  std::vector<double> traced_txn_per_s, verify_s, snapshot_s;
  for (const LadderRep& r : reps) {
    const double per_s = static_cast<double>(r.decided) / ((r.sim_s + r.checker_s) * f);
    if (r.traced) {
      traced_txn_per_s.push_back(per_s);
      continue;
    }
    cpu_us.push_back(r.sim_cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, r.committed)) * f);
    tps.push_back(static_cast<double>(r.committed) / (r.sim_s * f));
    p50.push_back(r.lat_p50 * f);
    p99.push_back(r.lat_p99 * f);
    setup.push_back(r.setup_s * f);
    read50.push_back(r.read_p50 * f);
    read99.push_back(r.read_p99 * f);
    txn_per_s.push_back(per_s);
    // Simulator time per event: the simulated phase less the timed reads.
    std::uint64_t rep_events = 0;
    for (const StackRun& s : r.stacks) rep_events += s.events;
    event_ns.push_back((r.sim_s - r.read_s) * 1e9 /
                       static_cast<double>(std::max<std::uint64_t>(1, rep_events)));
    double v = 0, sn = 0;
    for (const StackRun& s : r.stacks) {
      stack_sim_s[s.name].push_back(s.sim_s);
      v += s.verify_s;
      sn += s.snapshot_s;
    }
    verify_s.push_back(v);
    snapshot_s.push_back(sn);
  }

  Report& rep = out.report;
  if (!opt.trace) {
    put(rep, "cpu_us_per_txn", median(cpu_us));
    put(rep, "lat_p50_us", median(p50));
    put(rep, "committed_frac", ratio(first.committed, updates));
    put(rep, "msgs_per_txn", ratio(msgs, first.decided));
    put(rep, "setup_s", median(setup));
    put(rep, "rss_mb", peak_rss_mb());
    put(rep, "read_p50_us", median(read50));
  } else {
    const LadderRep* traced = nullptr;
    for (const LadderRep& r : reps) {
      if (r.traced && traced == nullptr) traced = &r;
    }
    put(rep, "failed_frac", ratio(undecided + refusals, updates + read_calls));
    put(rep, "commit_tps", median(tps));
    put(rep, "lat_p99_us", median(p99));
    put(rep, "read_p99_us", median(read99));
    put(rep, "sim_txn_per_s", median(txn_per_s));
    put(rep, "lat_p50_ticks", percentile(lat_ticks, 0.5));
    put(rep, "lat_p99_ticks", tail_percentile(lat_ticks, 0.99));
    double unavail_sum = 0;
    for (double u : unavail) unavail_sum += u;
    put(rep, "unavail_ticks", unavail.empty() ? 0 : unavail_sum / static_cast<double>(unavail.size()));
    put(rep, "trace_overhead_frac", 1.0 - median(traced_txn_per_s) / median(txn_per_s));
    put(rep, "sim.events_per_txn", ratio(events, first.decided));
    put(rep, "sim.event_ns", median(event_ns));
    std::uint64_t bytes = 0;
    for (const StackRun& s : traced->stacks) {
      for (const auto& [type, t] : s.traffic) bytes += t.bytes;
    }
    put(rep, "sim.bytes_per_txn", ratio(bytes, traced->decided));
    const StackRun& commit = traced->stacks[0];
    replay_envelopes(commit.traffic, rep);
    for (const std::string& t : commit_message_types()) {
      auto it = commit.traffic.find(t);
      put(rep, "commit.msgs_per_txn." + t,
          it == commit.traffic.end() ? 0 : ratio(it->second.msgs, commit.decided));
    }
    put(rep, "store.reads_served_frac", ratio(served, read_calls));
    put(rep, "checker.verify_s", median(verify_s));
    put(rep, "checker.snapshot_s", median(snapshot_s));
    ratc::recon::EngineStats recon;
    ratc::baseline::TerminationStats term;
    for (const StackRun& s : first.stacks) {
      recon.accumulate(s.recon);
      term.blocked += s.term.blocked;
      term.resolved_commits += s.term.resolved_commits;
      term.resolved_aborts += s.term.resolved_aborts;
    }
    put(rep, "recon.attempts", static_cast<double>(recon.attempts));
    put(rep, "recon.probes", static_cast<double>(recon.probes_sent));
    put(rep, "recon.cas_losses", static_cast<double>(recon.cas_losses));
    double epoch_sum = 0;
    for (double e : epoch_ticks) epoch_sum += e;
    put(rep, "recon.epoch_ticks",
        epoch_ticks.empty() ? 0 : epoch_sum / static_cast<double>(epoch_ticks.size()));
    put(rep, "term.blocked", static_cast<double>(term.blocked));
    put(rep, "term.resolved", static_cast<double>(term.resolved_commits + term.resolved_aborts));
    put(rep, "rdma.fabric_writes_per_txn", ratio(first.stacks[1].fabric_writes, first.stacks[1].decided));
    for (const StackRun& s : first.stacks) {
      put(rep, s.name + ".sim_s", median(stack_sim_s[s.name]));
      put(rep, s.name + ".msgs_per_txn", ratio(s.msgs, s.decided));
      put(rep, s.name + ".lat_p50_ticks", percentile(s.lat_ticks, 0.5));
      put(rep, s.name + ".committed_frac", ratio(s.committed, s.updates));
    }
    fill_unmeasured_layers(rep);
    std::vector<Span> spans;
    for (const StackRun& s : traced->stacks) spans.insert(spans.end(), s.spans.begin(), s.spans.end());
    const std::string path = opt.out_dir + "/spans-sim-ladder.csv";
    if (!write_spans(path, spans)) out.fail("cannot write " + path);
  }
  print_host_speed(speed);
  std::printf("info %zu repetitions; repetition 0: %llu updates (%llu undecided), %llu reads "
              "(%llu refusals retried, %llu never served)\n",
              reps.size(), static_cast<unsigned long long>(updates),
              static_cast<unsigned long long>(undecided), static_cast<unsigned long long>(reads),
              static_cast<unsigned long long>(refusals),
              static_cast<unsigned long long>(unserved));
  for (const StackRun& s : first.stacks) {
    std::printf("info stack %-13s committed %llu/%llu msgs %llu blocked %llu unavail",
                s.name.c_str(), static_cast<unsigned long long>(s.committed),
                static_cast<unsigned long long>(s.updates), static_cast<unsigned long long>(s.msgs),
                static_cast<unsigned long long>(s.term.blocked));
    for (double u : s.unavail_ticks) std::printf(" %g", u);
    std::printf("\n");
  }
  return out;
}

}  // namespace perfbench
