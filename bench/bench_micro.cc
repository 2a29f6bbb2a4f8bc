// Microbenchmarks (google-benchmark) for the hot paths: certification
// checks, payload projection, the simulator's event loop, the end-to-end
// certification pipeline, the read watermark and the history checkers.
#include <benchmark/benchmark.h>

#include <map>

#include "checker/linearization.h"
#include "commit/cluster.h"
#include "commit/log.h"
#include "common/random.h"
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
  // Pins the event queue's move-only push/pop: every closure captures a
  // shared_ptr (the shape Network::send produces when it captures an
  // AnyMessage).  A queue that copied std::function on push or pop would
  // pay an extra atomic refcount round trip per event and show up here.
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

void BM_EndToEndCertification(benchmark::State& state) {
  // Full protocol round trips per iteration batch: 2 shards x 2 replicas.
  for (auto _ : state) {
    state.PauseTiming();
    commit::Cluster cluster({.seed = 4, .num_shards = 2, .shard_size = 2,
                             .enable_monitor = false});
    commit::Client& client = cluster.add_client();
    state.ResumeTiming();
    for (int i = 0; i < 100; ++i) {
      tcs::Payload p;
      p.reads = {{static_cast<ObjectId>(2 * i), 0}, {static_cast<ObjectId>(2 * i + 1), 0}};
      p.writes = {{static_cast<ObjectId>(2 * i), 1}};
      p.commit_version = 1;
      client.certify_colocated(cluster.replica(0, 1), cluster.next_txn_id(), p);
    }
    cluster.sim().run();
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_EndToEndCertification);

/// A certification log of n slots with the last 1% still prepared (the
/// shape perfbench's replay uses), and its prepared slots as a replica's
/// prepared_at_ holds them.
struct WatermarkLog {
  commit::ReplicaLog log;
  std::map<Slot, Time> prepared;
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
