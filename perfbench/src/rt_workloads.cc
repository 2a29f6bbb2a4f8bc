// rt-fresh and rt-longlog: the commit stack on rt::ThreadedRuntime, the
// wall-clock view a user of the commit service sees.
//
// Topology (both): 4 shards of f+1 = 2 replicas, no spares, monitor off,
// serializability; 3 runtime workers plus the main thread; 4 clients,
// client i coordinating through shard i's follower (coordination stays off
// the leaders, as in the paper's Fig. 1).
//
// rt-fresh: every round builds a fresh cluster and carries 5,000 scalar
// transactions over 1M uniform keys, so logs stay short (about 2k entries
// per shard leader) and the per-message path dominates.  Phase A (first
// half of the run) is a closed loop of window 16 per client and gives
// cpu_us_per_txn and commit_tps; phase B (second half) is a closed loop of
// one transaction in flight per client and gives latency.  Phase B is not an
// open loop: on a host whose virtual CPUs lose 10-50% of their time to other
// tenants, paced submissions pile up behind every stall and the tail
// measures the host.
// Traced runs pace phase B's traced rounds open loop at 25,000 txn/s, for
// the generator-lag and inbox-wait layers.
//
// rt-longlog: a cluster preloaded with 60,000 transactions (about 25k
// entries per shard leader, counted in setup_s), then a closed loop with
// batches of 8 and 4 batches in flight per client over Zipf(0.99) keys, so
// log lookups and certification against contended objects dominate.
//
// Costs are CPU time, and every reported time and rate of the run loop is
// calibrated to the nominal host speed (calibrate.h).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "calibrate.h"
#include "catalog.h"
#include "checker/conflict_graph.h"
#include "client_load.h"
#include "replay.h"
#include "rt/commit_system.h"
#include "rt/threaded_runtime.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using ratc::ProcessId;
using ratc::rt::CommitSystem;
namespace tcs = ratc::tcs;

constexpr std::uint32_t kShards = 4;
constexpr std::size_t kShardSize = 2;
constexpr std::size_t kWorkers = 3;
constexpr std::size_t kClients = 4;
constexpr ratc::ObjectId kKeys = 1'000'000;

constexpr std::size_t kFreshRoundTxns = 5000;
constexpr std::size_t kFreshWindow = 16;
constexpr std::size_t kFreshLatencyWindow = 1;
constexpr double kFreshRate = 25000;

constexpr std::size_t kPreloadTxns = 60000;
constexpr std::size_t kLongBatch = 8;
constexpr std::size_t kLongWindow = 4 * kLongBatch;
constexpr double kZipfTheta = 0.99;
constexpr int kLongClusters = 3;
/// Each cluster's measured window runs as this many back-to-back phases,
/// with the host's speed sampled between them.
constexpr int kLongSlices = 4;

/// Reads replayed on each cluster's final state.
constexpr std::size_t kFreshReadsPerRound = 200;
constexpr std::size_t kLongReadsPerCluster = 2000;
/// The conflict-graph checker builds O(n^2) real-time edges, so it runs on
/// a window of the history's most recent transactions.  A cycle among a
/// subset of transactions is a cycle of the whole history.
constexpr std::size_t kConflictWindow = 1000;

enum Role { kLeader = 0, kFollower = 1, kClient = 2, kOther = 3 };
const std::vector<std::string> kRoleNames = {"leader", "follower", "client", "other"};

int role_of(ProcessId pid) {
  if (pid >= CommitSystem::kClientBase && pid < CommitSystem::kCsPid) return kClient;
  if (pid >= CommitSystem::kReplicaBase && pid < CommitSystem::kClientBase) {
    return (pid - CommitSystem::kReplicaBase) % CommitSystem::kShardStride == 0 ? kLeader
                                                                              : kFollower;
  }
  return kOther;
}

ratc::rt::ThreadedRuntime::Options runtime_options(std::uint64_t seed) {
  ratc::rt::ThreadedRuntime::Options o;
  o.threads = kWorkers;
  o.seed = seed;
  return o;
}

/// One cluster on its own runtime, optionally traced.  Members are declared
/// in dependency order; the destructor stops the workers before any member
/// they use is destroyed.
struct RtCluster {
  RtCluster(std::uint64_t seed, bool traced, const ratc::Zipfian* zipf)
      : threaded(runtime_options(seed)), view(kKeys) {
    if (traced) {
      timing = std::make_unique<TimingRuntime>(threaded, kRoleNames, role_of);
      tap = std::make_unique<TraceTap>();
      threaded.add_observer(tap.get());
      set_tracing(false);
    }
    ratc::rt::Runtime& rt = traced ? static_cast<ratc::rt::Runtime&>(*timing) : threaded;
    CommitSystem::Options so;
    so.num_shards = kShards;
    so.shard_size = kShardSize;
    so.enable_monitor = false;
    system = std::make_unique<CommitSystem>(rt, so);
    std::vector<ProcessId> coordinators;
    for (ratc::ShardId s = 0; s < kShards; ++s) coordinators.push_back(system->replica_pid(s, 1));
    load = std::make_unique<ClientLoad>(rt, coordinators, kClients, CommitSystem::kClientBase,
                                          seed, view, zipf);
    threaded.start();
  }
  ~RtCluster() { threaded.stop(); }

  void set_tracing(bool on) {
    if (timing) timing->set_enabled(on);
    if (tap) tap->set_enabled(on);
  }

  std::vector<const ratc::commit::Replica*> leaders() {
    std::vector<const ratc::commit::Replica*> out;
    for (ratc::ShardId s = 0; s < kShards; ++s) out.push_back(&system->replica(s, 0));
    return out;
  }

  /// Mean leader log length, read on each leader's own worker.
  double leader_log_entries() {
    std::atomic<std::size_t> total{0}, done{0};
    for (ratc::ShardId s = 0; s < kShards; ++s) {
      ratc::commit::Replica* r = &system->replica(s, 0);
      threaded.schedule_for(r->id(), 0, [r, &total, &done] {
        total.fetch_add(r->log().size());
        done.fetch_add(1);
      });
    }
    while (done.load() < kShards) std::this_thread::sleep_for(std::chrono::microseconds(100));
    return static_cast<double>(total.load()) / kShards;
  }

  ratc::rt::ThreadedRuntime threaded;
  std::unique_ptr<TimingRuntime> timing;
  std::unique_ptr<TraceTap> tap;
  VersionView view;
  std::unique_ptr<CommitSystem> system;
  std::unique_ptr<ClientLoad> load;
};

/// What the rounds of one run add up to.
struct RtAggregate {
  std::vector<double> setup_s, round_setup_ms, tps, tps_traced, cpu_us, p50, p99, history_s;
  /// Every transaction of the run, preloads included.
  std::uint64_t attempted = 0, failed = 0;
  /// Measured phases only.
  std::uint64_t measured = 0, decided = 0, committed = 0, delivered = 0;
  std::vector<double> read_us;
  std::uint64_t reads = 0, reads_served = 0;
  // Traced rounds only.
  std::vector<double> inbox_wait_us, lag_us;
  std::map<std::string, TypeTraffic> traffic;
  RuntimeTimings timings;
  double traced_wall_s = 0;
  std::uint64_t traced_decided = 0;
  std::vector<double> log_entries;
  std::vector<Span> spans;
  bool replayed = false;
  /// The run's host-speed factor (calibrate.h): times are reported
  /// multiplied by it, rates divided.
  double speed = 1;
};

void add_preload(RtAggregate& agg, const PhaseResult& r) {
  agg.attempted += r.attempted;
  agg.failed += r.failed();
}

void add_measured(RtAggregate& agg, const PhaseResult& r, std::uint64_t delivered) {
  add_preload(agg, r);
  agg.measured += r.attempted;
  agg.decided += r.decided;
  agg.committed += r.committed;
  agg.delivered += delivered;
}

/// Output checks on a stopped cluster: no transaction got two decisions,
/// every certified transaction was decided or counted failed, and the most
/// recent transactions' serialization graph is acyclic.
void check_cluster(RtCluster& c, std::uint64_t attempted, std::uint64_t failed,
                   bool conflict_graph, RtAggregate& agg, Outcome& out) {
  std::int64_t t0 = now_ns();
  tcs::History h = c.load->merged_history();
  std::vector<ratc::TxnId> conflicting = h.conflicting_decisions();
  if (!conflicting.empty()) {
    out.fail("conflicting decisions for txn " + std::to_string(conflicting.front()));
  }
  std::vector<ratc::TxnId> all = h.all_txns();
  std::size_t undecided = 0;
  for (ratc::TxnId t : all) undecided += h.decision_of(t).has_value() ? 0 : 1;
  if (all.size() != attempted || undecided > failed) {
    out.fail("history holds " + std::to_string(all.size()) + " txns (" +
             std::to_string(undecided) + " undecided) for " + std::to_string(attempted) +
             " attempted, " + std::to_string(failed) + " failed");
  }
  if (conflict_graph && !all.empty()) {
    std::sort(all.begin(), all.end());
    ratc::TxnId lo = all.size() > kConflictWindow ? all[all.size() - kConflictWindow] : all[0];
    tcs::History window;
    for (const tcs::HistoryEvent& e : h.events()) {
      if (e.txn < lo) continue;
      if (e.kind == tcs::HistoryEvent::Kind::kCertify) {
        window.record_certify(e.time, e.txn, e.payload);
      } else {
        window.record_decide(e.time, e.txn, e.decision);
      }
    }
    ratc::checker::ConflictGraphResult cg = ratc::checker::check_conflict_graph(window);
    if (!cg.ok) out.fail("conflict graph: " + cg.error);
    agg.history_s.push_back(seconds_since(t0));
  }
}

/// Snapshot reads served on a stopped cluster's final state, the way
/// commit::Cluster::snapshot_read serves them: per involved shard one
/// member (rotating), the snapshot at the smallest of their watermarks,
/// each object from that member's multi-version store.  The reads run twice
/// and only the second pass is timed: the first fills the caches, so the
/// times measure the read path rather than how much of the cluster's state
/// the host's other tenants evicted.
void replay_reads(RtCluster& c, std::uint64_t seed, const ratc::Zipfian* zipf, std::size_t n,
                  RtAggregate& agg) {
  PayloadGen gen(seed, c.view, zipf);
  std::vector<std::vector<ratc::ObjectId>> sets;
  for (std::size_t i = 0; i < n; ++i) sets.push_back(gen.next_read_set());
  const tcs::ShardMap& map = c.system->shard_map();
  auto serve = [&](std::size_t i) {
    std::map<ratc::ShardId, const ratc::commit::Replica*> serving;
    tcs::Csn snapshot = tcs::watermark_at(c.threaded.now());
    for (ratc::ObjectId o : sets[i]) {
      ratc::ShardId s = map.shard_of(o);
      if (serving.count(s) != 0) continue;
      const ratc::commit::Replica* r = &c.system->replica(s, i % kShardSize);
      serving[s] = r;
      snapshot = std::min(snapshot, r->read_watermark());
    }
    bool served = true;
    for (ratc::ObjectId o : sets[i]) {
      served = served && serving.at(map.shard_of(o))->snapshot_store().read_at(o, snapshot);
    }
    return served;
  };
  for (std::size_t i = 0; i < n; ++i) serve(i);
  for (std::size_t i = 0; i < n; ++i) {
    std::int64_t t0 = now_ns();
    const bool served = serve(i);
    agg.read_us.push_back(static_cast<double>(now_ns() - t0) / 1000.0);
    ++agg.reads;
    agg.reads_served += served ? 1 : 0;
  }
}

/// Traced clusters: gather the tap and runtime timings of the measured
/// phase, and once per run replay the layers on this cluster's state.
void collect_trace(RtCluster& c, const PhaseResult& r, std::uint64_t seed, RtAggregate& agg,
                   Report& layers) {
  std::vector<double> waits = c.tap->inbox_wait_us();
  agg.inbox_wait_us.insert(agg.inbox_wait_us.end(), waits.begin(), waits.end());
  for (const auto& [type, t] : c.tap->traffic()) {
    agg.traffic[type].msgs += t.msgs;
    agg.traffic[type].bytes += t.bytes;
  }
  RuntimeTimings rtt = c.timing->timings();
  for (const auto& [key, b] : rtt.handlers) {
    agg.timings.handlers[key].count += b.count;
    agg.timings.handlers[key].ns += b.ns;
  }
  for (const auto& [role, b] : rtt.timers) {
    agg.timings.timers[role].count += b.count;
    agg.timings.timers[role].ns += b.ns;
  }
  agg.traced_wall_s += r.wall_s;
  agg.traced_decided += r.decided;
  agg.lag_us.insert(agg.lag_us.end(), r.lag_us.begin(), r.lag_us.end());
  std::vector<Span> spans = c.tap->spans();
  agg.spans.insert(agg.spans.end(), spans.begin(), spans.end());
  if (agg.replayed) return;
  agg.replayed = true;
  std::vector<tcs::Payload> payloads = c.load->sample_payloads(20000, seed);
  replay_log_layers(payloads, c.system->certifier(), kShards, layers);
  std::vector<ratc::ObjectId> objects;
  for (const tcs::Payload& p : payloads) {
    if (objects.size() >= 2000) break;
    objects.push_back(p.reads.front().object);
  }
  replay_read_path(c.leaders(), objects, layers);
}

double cpu_seconds_since(std::int64_t cpu0) {
  return static_cast<double>(process_cpu_ns() - cpu0) / 1e9;
}

double cpu_us_per(double cpu_s, std::uint64_t committed) {
  return cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, committed));
}

void report_end_to_end(const RtAggregate& agg, Report& rep) {
  const double f = agg.speed;
  put(rep, "cpu_us_per_txn", median(agg.cpu_us) * f);
  put(rep, "lat_p50_us", median(agg.p50) * f);
  put(rep, "committed_frac",
      static_cast<double>(agg.committed) / static_cast<double>(std::max<std::uint64_t>(1, agg.measured)));
  put(rep, "msgs_per_txn",
      static_cast<double>(agg.delivered) / static_cast<double>(std::max<std::uint64_t>(1, agg.decided)));
  put(rep, "setup_s", median(agg.setup_s) * f);
  put(rep, "rss_mb", peak_rss_mb());
  put(rep, "read_p50_us", percentile(agg.read_us, 0.5) * f);
}

void report_layers(const RtAggregate& agg, Report& rep) {
  std::uint64_t handler_ns = 0, handler_count = 0, timer_ns = 0, timer_count = 0, leader_ns = 0;
  std::map<std::string, BodyTime> by_type;
  for (const auto& [key, b] : agg.timings.handlers) {
    handler_ns += b.ns;
    handler_count += b.count;
    by_type[key.second].count += b.count;
    by_type[key.second].ns += b.ns;
    if (key.first == kRoleNames[kLeader]) leader_ns += b.ns;
  }
  for (const auto& [role, b] : agg.timings.timers) {
    timer_ns += b.ns;
    timer_count += b.count;
    if (role == kRoleNames[kLeader]) leader_ns += b.ns;
  }
  const double busy_ns = static_cast<double>(handler_ns + timer_ns);
  const double wall_ns = std::max(1e-9, agg.traced_wall_s) * 1e9;
  const double decided = static_cast<double>(std::max<std::uint64_t>(1, agg.traced_decided));
  put(rep, "commit_tps", median(agg.tps) / agg.speed);
  put(rep, "lat_p99_us", median(agg.p99) * agg.speed);
  put(rep, "read_p99_us", tail_percentile(agg.read_us, 0.99) * agg.speed);
  put(rep, "rt.inbox_wait_us.p50", percentile(agg.inbox_wait_us, 0.5));
  put(rep, "rt.inbox_wait_us.p99", tail_percentile(agg.inbox_wait_us, 0.99));
  put(rep, "rt.worker_busy_frac", busy_ns / (kWorkers * wall_ns));
  put(rep, "rt.handler_us.mean",
      handler_count ? static_cast<double>(handler_ns) / handler_count / 1000.0 : 0);
  put(rep, "rt.timer_us.mean", timer_count ? static_cast<double>(timer_ns) / timer_count / 1000.0 : 0);
  put(rep, "rt.setup_ms.round", median(agg.round_setup_ms));
  put(rep, "rt.gen_lag_us.p99", tail_percentile(agg.lag_us, 0.99));
  std::uint64_t bytes = 0;
  for (const auto& [type, t] : agg.traffic) bytes += t.bytes;
  put(rep, "sim.bytes_per_txn", static_cast<double>(bytes) / decided);
  for (const std::string& t : commit_message_types()) {
    auto it = by_type.find(t);
    const BodyTime b = it == by_type.end() ? BodyTime{} : it->second;
    put(rep, "commit.handler_us." + t, b.count ? static_cast<double>(b.ns) / b.count / 1000.0 : 0);
    put(rep, "commit.handler_share." + t, busy_ns > 0 ? static_cast<double>(b.ns) / busy_ns : 0);
    auto tr = agg.traffic.find(t);
    put(rep, "commit.msgs_per_txn." + t,
        tr == agg.traffic.end() ? 0 : static_cast<double>(tr->second.msgs) / decided);
  }
  put(rep, "commit.leader_busy_frac", static_cast<double>(leader_ns) / (kShards * wall_ns));
  put(rep, "commit.log_entries", agg.log_entries.empty() ? 0 : median(agg.log_entries));
  put(rep, "store.reads_served_frac",
      static_cast<double>(agg.reads_served) / static_cast<double>(std::max<std::uint64_t>(1, agg.reads)));
  put(rep, "checker.history_s", agg.history_s.empty() ? 0 : median(agg.history_s));
  replay_envelopes(agg.traffic, rep);
  double untraced = median(agg.tps), traced = median(agg.tps_traced);
  put(rep, "trace_overhead_frac", untraced > 0 && traced > 0 ? 1.0 - traced / untraced : 0);

  // The profile's prediction: PREPARE handlers (scalar and batched) take
  // the largest share of worker busy time.  Batched and scalar forms of
  // every other message count together too.
  std::map<std::string, double> family;
  for (const std::string& t : commit_message_types()) {
    std::string base = t.size() > 6 && t.compare(t.size() - 6, 6, "_BATCH") == 0
                           ? t.substr(0, t.size() - 6)
                           : t;
    family[base] += rep.value("commit.handler_share." + t);
  }
  std::string top;
  for (const auto& [name, share] : family) {
    if (top.empty() || share > family[top]) top = name;
  }
  std::printf("info profile: PREPARE share of worker busy time %.3f; largest %s (%.3f) -> "
              "PREPARE handlers %s the largest share\n",
              family["PREPARE"], top.c_str(), family[top], top == "PREPARE" ? "take" : "do not take");
}

void finish(const RtAggregate& agg, const RunOptions& opt, const std::string& workload,
            Outcome& out) {
  if (opt.trace) {
    report_layers(agg, out.report);
    fill_unmeasured_layers(out.report);
    const std::string path = opt.out_dir + "/spans-" + workload + ".csv";
    if (!write_spans(path, agg.spans)) out.fail("cannot write " + path);
  } else {
    report_end_to_end(agg, out.report);
  }
  out.attempted = agg.attempted + agg.reads;
  out.failed = agg.failed + (agg.reads - agg.reads_served);
  std::printf("info measured %llu txns, %llu decided; %llu txns in all, %llu failed; "
              "%llu reads, %llu served\n",
              static_cast<unsigned long long>(agg.measured),
              static_cast<unsigned long long>(agg.decided),
              static_cast<unsigned long long>(agg.attempted),
              static_cast<unsigned long long>(agg.failed),
              static_cast<unsigned long long>(agg.reads),
              static_cast<unsigned long long>(agg.reads_served));
}

}  // namespace

Outcome run_rt_fresh(const RunOptions& opt) {
  Outcome out;
  RtAggregate agg;
  const std::int64_t start = now_ns();
  HostSpeed speed;
  std::size_t round = 0;
  bool graph_checked[2] = {false, false};
  for (int phase = 0; phase < 2; ++phase) {
    const bool latency_phase = phase == 1;
    const double phase_end = opt.seconds * (phase + 1) / 2.0;
    do {
      // Traced runs alternate untraced and traced rounds so the tracing
      // overhead is measured on the same seed stream.
      const bool traced = opt.trace && round % 2 == 1;
      const std::uint64_t seed = derive_seed(opt.seed, round++);
      std::int64_t t0 = now_ns();
      const std::int64_t setup_cpu0 = process_cpu_ns();
      RtCluster c(seed, traced, nullptr);
      agg.setup_s.push_back(cpu_seconds_since(setup_cpu0));
      agg.round_setup_ms.push_back(seconds_since(t0) * 1000.0);
      PhaseSpec spec;
      spec.txns = kFreshRoundTxns;
      spec.deadline_s = 10;
      if (!latency_phase) {
        spec.window = kFreshWindow;
      } else if (traced) {
        spec.rate = kFreshRate;
      } else {
        spec.window = kFreshLatencyWindow;
      }
      std::uint64_t delivered0 = c.threaded.delivered_count();
      const std::int64_t cpu0 = process_cpu_ns();
      c.set_tracing(true);
      PhaseResult r = c.load->run(spec);
      const double cpu_s = cpu_seconds_since(cpu0);
      c.set_tracing(false);
      std::uint64_t delivered = c.threaded.delivered_count() - delivered0;
      c.threaded.stop();
      add_measured(agg, r, delivered);
      const double tps = r.wall_s > 0 ? static_cast<double>(r.committed) / r.wall_s : 0;
      if (!latency_phase) (traced ? agg.tps_traced : agg.tps).push_back(tps);
      if (!latency_phase && !traced) agg.cpu_us.push_back(cpu_us_per(cpu_s, r.committed));
      if (latency_phase && !traced) {
        agg.p50.push_back(percentile(r.lat_us, 0.5));
        agg.p99.push_back(tail_percentile(r.lat_us, 0.99));
      }
      check_cluster(c, r.attempted, r.failed(), !graph_checked[phase], agg, out);
      graph_checked[phase] = true;
      replay_reads(c, derive_seed(seed, 1), nullptr, kFreshReadsPerRound, agg);
      if (traced) collect_trace(c, r, seed, agg, out.report);
      speed.sample();
    } while (seconds_since(start) < phase_end);
  }
  agg.log_entries.push_back(0);  // every round measures from an empty log
  out.seeds.push_back({"rounds", round});
  agg.speed = speed.factor();
  print_host_speed(speed);
  finish(agg, opt, "rt-fresh", out);
  return out;
}

Outcome run_rt_longlog(const RunOptions& opt) {
  Outcome out;
  RtAggregate agg;
  const ratc::Zipfian zipf(kKeys, kZipfTheta);
  const double slice_s = opt.seconds / kLongClusters / kLongSlices;
  HostSpeed speed;
  for (int i = 0; i < kLongClusters; ++i) {
    const bool traced = opt.trace && i > 0;
    const std::uint64_t seed = derive_seed(opt.seed, static_cast<std::uint64_t>(i));
    out.seeds.push_back({"cluster" + std::to_string(i), seed});
    std::int64_t t0 = now_ns();
    const std::int64_t setup_cpu0 = process_cpu_ns();
    RtCluster c(seed, traced, &zipf);
    agg.round_setup_ms.push_back(seconds_since(t0) * 1000.0);
    PhaseSpec preload;
    preload.txns = kPreloadTxns;
    preload.batch = kLongBatch;
    preload.window = kLongWindow;
    preload.deadline_s = 60;
    PhaseResult pre = c.load->run(preload);
    agg.setup_s.push_back(cpu_seconds_since(setup_cpu0));
    speed.sample();
    add_preload(agg, pre);
    agg.log_entries.push_back(c.leader_log_entries());

    PhaseSpec measured = preload;
    measured.txns = 0;
    measured.duration_s = slice_s;
    measured.deadline_s = slice_s + 30;
    PhaseResult all;
    std::uint64_t delivered0 = c.threaded.delivered_count();
    c.set_tracing(true);
    for (int k = 0; k < kLongSlices; ++k) {
      const std::int64_t cpu0 = process_cpu_ns();
      PhaseResult r = c.load->run(measured);
      const double cpu_s = cpu_seconds_since(cpu0);
      speed.sample();
      const double tps =
          r.window_s > 0 ? static_cast<double>(r.committed_in_window) / r.window_s : 0;
      (traced ? agg.tps_traced : agg.tps).push_back(tps);
      if (!traced) {
        agg.cpu_us.push_back(cpu_us_per(cpu_s, r.committed));
        agg.p50.push_back(percentile(r.lat_us, 0.5));
        agg.p99.push_back(tail_percentile(r.lat_us, 0.99));
      }
      all.attempted += r.attempted;
      all.decided += r.decided;
      all.committed += r.committed;
      all.wall_s += r.wall_s;
      all.lag_us.insert(all.lag_us.end(), r.lag_us.begin(), r.lag_us.end());
    }
    c.set_tracing(false);
    std::uint64_t delivered = c.threaded.delivered_count() - delivered0;
    c.threaded.stop();
    add_measured(agg, all, delivered);
    check_cluster(c, pre.attempted + all.attempted, pre.failed() + all.failed(), true, agg, out);
    replay_reads(c, derive_seed(seed, 1), &zipf, kLongReadsPerCluster, agg);
    if (traced) collect_trace(c, all, seed, agg, out.report);
  }
  agg.speed = speed.factor();
  print_host_speed(speed);
  finish(agg, opt, "rt-longlog", out);
  return out;
}

}  // namespace perfbench
