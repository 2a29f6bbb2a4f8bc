// Microbenchmarks (google-benchmark) for the hot paths: certification
// checks, payload projection, the simulator's event loop and message hop,
// snapshot-read serving, the end-to-end
// certification pipeline (commit stack and 2PC baseline), the read
// watermark, the message envelope, the
// PREPARE -> PREPARE_ACK -> ACCEPT hand-off, the threaded runtime's inbox
// hop and the history checkers.
#include <benchmark/benchmark.h>

#include <atomic>
#include <ctime>
#include <memory>

#include "baseline/cluster.h"
#include "checker/linearization.h"
#include "commit/cluster.h"
#include "commit/log.h"
#include "commit/messages.h"
#include "commit/replica_core.h"
#include "common/random.h"
#include "rt/inbox.h"
#include "rt/threaded_runtime.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "tcs/certifier.h"
#include "tcs/shard_map.h"

namespace ratc {
namespace {

tcs::Payload random_payload(Rng& rng, std::uint64_t objects) {
  tcs::Payload p;
  std::uint64_t n = 1 + rng.below(4);
  Version maxv = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    ObjectId obj = rng.below(objects);
    if (p.reads_object(obj)) continue;
    Version v = rng.below(100);
    p.reads.push_back({obj, v});
    maxv = std::max(maxv, v);
  }
  for (const auto& r : p.reads) {
    if (rng.chance(0.5)) p.writes.push_back({r.object, 1});
  }
  p.commit_version = maxv + 1;
  return p;
}

void BM_SerializabilityCheck(benchmark::State& state) {
  Rng rng(1);
  tcs::SerializabilityCertifier cert;
  std::vector<tcs::Payload> committed;
  for (int i = 0; i < 64; ++i) committed.push_back(random_payload(rng, 100));
  tcs::Payload l = random_payload(rng, 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cert.committed_set(committed, l));
  }
}
BENCHMARK(BM_SerializabilityCheck);

void BM_SnapshotIsolationCheck(benchmark::State& state) {
  Rng rng(2);
  tcs::SnapshotIsolationCertifier cert;
  std::vector<tcs::Payload> committed;
  for (int i = 0; i < 64; ++i) committed.push_back(random_payload(rng, 100));
  tcs::Payload l = random_payload(rng, 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cert.committed_set(committed, l));
  }
}
BENCHMARK(BM_SnapshotIsolationCheck);

void BM_PayloadProjection(benchmark::State& state) {
  Rng rng(3);
  tcs::ShardMap sm(8);
  tcs::Payload p = random_payload(rng, 1000);
  for (auto _ : state) {
    for (ShardId s = 0; s < 8; ++s) benchmark::DoNotOptimize(sm.project(p, s));
  }
}
BENCHMARK(BM_PayloadProjection);

void BM_SimulatorEventLoop(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim(1);
    int counter = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(static_cast<Duration>(i % 17), [&counter] { ++counter; });
    }
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
}
BENCHMARK(BM_SimulatorEventLoop);

void BM_SimulatorEventQueueChurn(benchmark::State& state) {
  // Pins the event queue's move-only push/pop of closures: every closure
  // captures a shared_ptr, so a queue that copied std::function on push or
  // pop would pay an extra atomic refcount round trip per event and show up
  // here.  Message hops do not take this path: Network::send schedules a
  // delivery event that holds the envelope itself.
  auto payload = std::make_shared<std::string>(64, 'x');
  for (auto _ : state) {
    sim::Simulator sim(7);
    std::uint64_t sum = 0;
    for (int i = 0; i < 4096; ++i) {
      sim.schedule(static_cast<Duration>(i & 31),
                   [payload, &sum] { sum += payload->size(); });
    }
    sim.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_SimulatorEventQueueChurn);

// Full protocol round trips per iteration batch: 2 shards x 2 replicas,
// with the invariant monitor off or on, over 100 or 1,000 transactions.  The
// monitor's cost per transaction is the on/off gap; what still grows with the
// log is each vote's witness lists, one id per earlier slot, that the core
// collects for TCS-LL when an observer is set.  Tearing the cluster down is
// left out of the timing, as in BM_EndToEndBaseline.
void BM_EndToEndCertification(benchmark::State& state) {
  const bool monitor = state.range(0) != 0;
  const int txns = static_cast<int>(state.range(1));
  for (auto _ : state) {
    state.PauseTiming();
    auto cluster = std::make_unique<commit::Cluster>(commit::Cluster::Options{
        .seed = 4, .num_shards = 2, .shard_size = 2, .enable_monitor = monitor});
    commit::Client& client = cluster->add_client();
    state.ResumeTiming();
    for (int i = 0; i < txns; ++i) {
      tcs::Payload p;
      p.reads = {{static_cast<ObjectId>(2 * i), 0}, {static_cast<ObjectId>(2 * i + 1), 0}};
      p.writes = {{static_cast<ObjectId>(2 * i), 1}};
      p.commit_version = 1;
      client.certify_colocated(cluster->replica(0, 1), cluster->next_txn_id(), p);
    }
    cluster->sim().run();
    state.PauseTiming();
    cluster.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * txns);
}
BENCHMARK(BM_EndToEndCertification)
    ->ArgNames({"monitor", "txns"})
    ->ArgsProduct({{0, 1}, {100, 1000}});

// The 2PC baseline's row beside it: 2 shards x 3 servers, the same payload
// shape, and one sim().run() per 16 submissions, so few transactions are in
// flight.  Each prepare votes through the object index (tcs::ObjectIndex),
// so the time per transaction stays about flat from 1,000 to 10,000; a fold
// over every applied transaction grows with the history instead.  Tearing
// the cluster down is left out of the timing: at 10,000 transactions it
// takes about a third of an iteration.
void BM_EndToEndBaseline(benchmark::State& state) {
  const int txns = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto cluster = std::make_unique<baseline::BaselineCluster>(
        baseline::BaselineCluster::Options{.seed = 4, .num_shards = 2, .shard_size = 3});
    commit::Client& client = cluster->add_client();
    state.ResumeTiming();
    for (int i = 0; i < txns; ++i) {
      tcs::Payload p;
      p.reads = {{static_cast<ObjectId>(2 * i), 0}, {static_cast<ObjectId>(2 * i + 1), 0}};
      p.writes = {{static_cast<ObjectId>(2 * i), 1}};
      p.commit_version = 1;
      client.certify_remote(cluster->coordinator_for(p), cluster->next_txn_id(), p);
      if (i % 16 == 15) cluster->sim().run();
    }
    cluster->sim().run();
    state.PauseTiming();
    cluster.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * txns);
}
BENCHMARK(BM_EndToEndBaseline)->ArgName("txns")->Arg(100)->Arg(1000)->Arg(10000);

/// A certification log of n slots with the last 1% still prepared (the
/// shape perfbench's replay uses), and its prepared slots as a replica's
/// prepared_at_ holds them.
struct WatermarkLog {
  commit::ReplicaLog log;
  FlatMap<Slot, Time> prepared;
};

WatermarkLog watermark_log(Slot n) {
  WatermarkLog w;
  for (Slot k = 1; k <= n; ++k) {
    commit::LogEntry& e = w.log.at(k);
    e.txn = k;
    e.prepare_ts = k;
    e.phase = k + n / 100 > n ? commit::Phase::kPrepared : commit::Phase::kDecided;
    if (e.phase == commit::Phase::kPrepared) w.prepared[k] = k;
  }
  return w;
}

// The "SnapshotStore apply and read" layer: the read watermark a snapshot
// read takes per involved shard.  The replicas' query reads only the
// prepared slots, so it grows with the in-flight count (1% of n here), not
// with the log; the whole-log scan it replaced (kept as its oracle) grows
// with n.
void BM_ReadWatermark(benchmark::State& state) {
  WatermarkLog w = watermark_log(static_cast<Slot>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(w.log.min_prepared_ts(w.prepared));
}
BENCHMARK(BM_ReadWatermark)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ReadWatermarkScan(benchmark::State& state) {
  WatermarkLog w = watermark_log(static_cast<Slot>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(w.log.scan_min_prepared_ts());
}
BENCHMARK(BM_ReadWatermarkScan)->Arg(1000)->Arg(10000)->Arg(100000);

/// A PREPARE of a two-read, one-write projection, as perfbench's envelope
/// replay builds it.
commit::Prepare sample_prepare() {
  tcs::Payload p;
  p.reads = {{1, 3}, {2, 5}};
  p.writes = {{1, 42}};
  p.commit_version = 6;
  return commit::Prepare{7, true, p, commit::TxnMeta{7, {0, 1}, 5000}};
}

// The envelope layer (sim/message.h): build, copy and destroy one message.
// An ACCEPT_ACK (prepare=0) travels inline; a PREPARE (prepare=1) takes one
// shared block that the copy shares.
void BM_Envelope(benchmark::State& state) {
  const commit::AcceptAck ack{0, 1, 9, 7, tcs::Decision::kCommit};
  const commit::Prepare prepare = sample_prepare();
  const bool shared = state.range(0) != 0;
  for (auto _ : state) {
    sim::AnyMessage m = shared ? sim::AnyMessage(prepare) : sim::AnyMessage(ack);
    sim::AnyMessage copy = m;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_Envelope)->ArgName("prepare")->Arg(0)->Arg(1);

/// A process that counts what it receives.
class Sink : public sim::Process {
 public:
  using Process::Process;
  void on_message(ProcessId, const sim::AnyMessage&) override { ++received; }
  std::uint64_t received = 0;
};

// The simulator's message path: one hop (Network::send, the delivery
// event, the delivery) between two processes on a bare Simulator and
// Network.  An ACCEPT_ACK (shared=0) travels inline; a PREPARE (shared=1)
// in its counted block.
void BM_SimulatedHop(benchmark::State& state) {
  sim::Simulator sim(1);
  sim::Network net(sim);
  Sink a(net.runtime(), 1, "a"), b(net.runtime(), 2, "b");
  sim.add_process(&a);
  sim.add_process(&b);
  const sim::AnyMessage msg =
      state.range(0) != 0
          ? sim::AnyMessage(sample_prepare())
          : sim::AnyMessage(commit::AcceptAck{0, 1, 9, 7, tcs::Decision::kCommit});
  for (auto _ : state) {
    net.send(a.id(), b.id(), msg);
    sim.run();
  }
  benchmark::DoNotOptimize(b.received);
}
BENCHMARK(BM_SimulatedHop)->ArgName("shared")->Arg(0)->Arg(1);

// Snapshot-read serving (SimHost::serve_snapshot_read): one read of three
// objects, one per shard, on a 3-shard commit cluster, served by rotating
// members.
void BM_SnapshotRead(benchmark::State& state) {
  commit::Cluster cluster({.seed = 4, .num_shards = 3, .shard_size = 2,
                           .enable_monitor = false});
  const std::vector<ObjectId> objects = {0, 1, 2};
  std::uint64_t hint = 0;
  for (auto _ : state) benchmark::DoNotOptimize(cluster.snapshot_read(objects, 0, hint++));
}
BENCHMARK(BM_SnapshotRead);

// The hand-off from one PREPARE to the leader's PREPARE_ACK and the
// coordinator's ACCEPT, each in its envelope: both forward the PREPARE's
// payload and meta objects.
void BM_PrepareToAccept(benchmark::State& state) {
  const commit::Prepare prepare = sample_prepare();
  for (auto _ : state) {
    sim::AnyMessage ack(commit::PrepareAck{1, 0, 9, prepare.txn, prepare.payload,
                                           tcs::Decision::kCommit, prepare.meta, 11});
    sim::AnyMessage accept(
        commit::accept_for<commit::Accept>(*ack.as<commit::PrepareAck>()));
    benchmark::DoNotOptimize(accept);
  }
}
BENCHMARK(BM_PrepareToAccept);

// The inbox hop (rt/inbox.h).  ThreadedRuntime::spawn builds one inbox per
// process, with one lane per worker plus the shared lane.
void BM_InboxConstruct(benchmark::State& state) {
  for (auto _ : state) {
    rt::Inbox inbox(3);
    benchmark::DoNotOptimize(&inbox);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_InboxConstruct);

struct PingMsg {
  static constexpr const char* kName = "PING";
};

// A burst pushed on one worker lane, then drained, in steady state: the
// spare block recycles, so neither side locks or allocates.  The message is
// built once and copied, so only the queue (plus a refcount) is timed.
void BM_InboxPushPop(benchmark::State& state) {
  const auto burst = static_cast<std::size_t>(state.range(0));
  rt::Inbox inbox(3);
  const sim::AnyMessage msg{PingMsg{}};
  std::uint64_t sum = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < burst; ++i) {
      inbox.push(0, rt::Envelope{static_cast<ProcessId>(i), msg});
    }
    inbox.drain(burst, [&sum](rt::Envelope& e) { sum += e.from; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(burst));
}
BENCHMARK(BM_InboxPushPop)->Arg(64);

struct BallMsg {
  static constexpr const char* kName = "BALL";
  std::uint64_t hops_left = 0;
};

/// Returns the ball with one hop fewer; the last hop raises `done`.
class HopProcess : public sim::Process {
 public:
  HopProcess(rt::Runtime& rt, ProcessId id, std::atomic<bool>& done)
      : Process(rt, id, "hop" + std::to_string(id)), done_(done) {}

  void on_message(ProcessId from, const sim::AnyMessage& msg) override {
    std::uint64_t left = msg.as<BallMsg>()->hops_left - 1;
    if (left > 0) {
      rt().send(id(), from, sim::AnyMessage(BallMsg{left}));
      return;
    }
    done_.store(true, std::memory_order_release);
    done_.notify_one();
  }

 private:
  std::atomic<bool>& done_;
};

// The whole inbox hop of rt::ThreadedRuntime, idle path included: two
// processes on the two workers of a runtime bounce one ball, so each hop is
// a send, the receiver's wake-up and its delivery.  One iteration is one
// hop; the main thread only starts each batch of hops and sleeps until it
// ends.  cpu_per_hop is the process's CPU time per hop.
void BM_CrossWorkerHop(benchmark::State& state) {
  constexpr std::uint64_t kBatch = 1000;
  rt::ThreadedRuntime trt({.threads = 2, .seed = 1});
  std::atomic<bool> done{false};
  HopProcess a(trt, 1, done);
  HopProcess b(trt, 2, done);
  trt.spawn(&a);  // worker 0
  trt.spawn(&b);  // worker 1
  trt.start();
  std::clock_t cpu0 = std::clock();
  while (state.KeepRunningBatch(kBatch)) {
    done.store(false, std::memory_order_relaxed);
    trt.send(1, 2, sim::AnyMessage(BallMsg{kBatch}));
    done.wait(false, std::memory_order_acquire);
  }
  double cpu_s = static_cast<double>(std::clock() - cpu0) / CLOCKS_PER_SEC;
  trt.stop();
  state.counters["cpu_per_hop"] = cpu_s / static_cast<double>(state.iterations());
}
BENCHMARK(BM_CrossWorkerHop)->UseRealTime();

void BM_LinearizationChecker(benchmark::State& state) {
  // 16 committed transactions with a mix of dependencies.
  tcs::History h;
  Rng rng(5);
  Version version = 0;
  for (TxnId t = 1; t <= 16; ++t) {
    tcs::Payload p;
    p.reads = {{t % 4, version}};
    p.writes = {{t % 4, static_cast<Value>(t)}};
    p.commit_version = version + 1;
    h.record_certify(2 * t, t, p);
    h.record_decide(2 * t + 1, t, tcs::Decision::kCommit);
    ++version;
  }
  tcs::SerializabilityCertifier cert;
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker::check_linearization(h, cert));
  }
}
BENCHMARK(BM_LinearizationChecker);

}  // namespace
}  // namespace ratc

BENCHMARK_MAIN();
