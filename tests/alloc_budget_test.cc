// Allocation budget of the certification path.
//
// A transaction's CPU on the threaded runtime is the sum of a dozen small
// handlers, and heap traffic is a large share of each.  This binary replaces
// the global operator new/delete with counting versions that forward to
// malloc/free (so ASan still checks every block).  Each block carries a
// header naming the thread that allocated it, so a delete on another thread
// is counted too: on the threaded runtime such a pair costs far more inside
// malloc and free than a same-thread pair.  The cases:
//
//   * colocated: bench_micro's BM_EndToEndCertification — 2 shards x 2
//     replicas, one client co-located with a replica, 100 transactions,
//     seed 4; also with the invariant monitor on, at 100 and 1,000
//     transactions, where the count per transaction must not grow with
//     the log (it counts allocations, not work);
//   * remote: 4 shards x 2 replicas, four clients, each certifying through
//     the follower of its own shard by message, 100 two-shard transactions;
//   * envelopes: an inline message (ACCEPT_ACK, DECISION, the default
//     envelope) allocates nothing, and a PREPARE one block that its copies
//     share;
//   * a simulated hop allocates nothing beyond its message's own block, and
//     a served snapshot read only its observations block;
//   * threaded: the remote shape on rt::ThreadedRuntime with rt::LoadGen,
//     counting allocations and other-thread deletes per decided
//     transaction.
//
// The simulator is deterministic, so each simulator count is exact for a
// given standard library; those bounds sit about 5% above the counts
// measured when they were pinned, which absorbs another libstdc++ version
// but not a new allocation on every transaction.  The threaded counts vary
// with the interleaving, so their bounds sit above the spread of repeated
// runs.  tests/README.md says how to re-pin them.  The test needs its own
// binary because the replacement is program-wide.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "commit/cluster.h"
#include "rt/commit_system.h"
#include "rt/loadgen.h"
#include "rt/threaded_runtime.h"
#include "sim/network.h"

namespace {

std::atomic<std::uint64_t> g_news{0};
std::atomic<std::uint64_t> g_other_thread_deletes{0};
std::atomic<std::uint32_t> g_threads{0};
/// This thread's number, 1-based; 0 until its first allocation.
thread_local std::uint32_t t_thread = 0;

/// Sits in front of every block; keeps the block at malloc's alignment.
struct alignas(alignof(std::max_align_t)) BlockHeader {
  std::uint32_t thread;
};

void* counted_new(std::size_t n) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (t_thread == 0) t_thread = g_threads.fetch_add(1, std::memory_order_relaxed) + 1;
  auto* h = static_cast<BlockHeader*>(std::malloc(sizeof(BlockHeader) + n));
  if (h == nullptr) return nullptr;
  h->thread = t_thread;
  return h + 1;
}

void* counted_new_or_throw(std::size_t n) {
  void* p = counted_new(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void counted_delete(void* p) noexcept {
  if (p == nullptr) return;
  BlockHeader* h = static_cast<BlockHeader*>(p) - 1;
  if (h->thread != t_thread) g_other_thread_deletes.fetch_add(1, std::memory_order_relaxed);
  std::free(h);
}

}  // namespace

void* operator new(std::size_t n) { return counted_new_or_throw(n); }
void* operator new[](std::size_t n) { return counted_new_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_new(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_new(n); }
void operator delete(void* p) noexcept { counted_delete(p); }
void operator delete[](void* p) noexcept { counted_delete(p); }
void operator delete(void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_delete(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_delete(p); }

namespace ratc {
namespace {

constexpr int kTxns = 100;

/// operator new calls per decided transaction while `run` submits and
/// drives the workload; the cluster is built before counting starts.
template <typename Run>
double news_per_decided(Run run, std::size_t* decided) {
  std::uint64_t before = g_news.load();
  *decided = run();
  std::uint64_t news = g_news.load() - before;
  return *decided == 0 ? 0.0 : static_cast<double>(news) / static_cast<double>(*decided);
}

/// operator new calls per decided transaction in the co-located 2x2 shape
/// (bench_micro's BM_EndToEndCertification) at `txns` transactions.
double colocated_two_by_two(bool monitor, int txns, std::size_t* decided) {
  commit::Cluster cluster({.seed = 4, .num_shards = 2, .shard_size = 2,
                           .enable_monitor = monitor});
  commit::Client& client = cluster.add_client();
  return news_per_decided(
      [&] {
        for (int i = 0; i < txns; ++i) {
          tcs::Payload p;
          p.reads = {{static_cast<ObjectId>(2 * i), 0}, {static_cast<ObjectId>(2 * i + 1), 0}};
          p.writes = {{static_cast<ObjectId>(2 * i), 1}};
          p.commit_version = 1;
          client.certify_colocated(cluster.replica(0, 1), cluster.next_txn_id(), p);
        }
        cluster.sim().run();
        return client.decided_count();
      },
      decided);
}

TEST(AllocBudget, ColocatedTwoByTwo) {
  std::size_t decided = 0;
  double per_txn = colocated_two_by_two(/*monitor=*/false, kTxns, &decided);
  std::printf("colocated 2x2: %.2f operator new calls per decided transaction\n", per_txn);
  ASSERT_EQ(decided, static_cast<std::size_t>(kTxns));
  EXPECT_LE(per_txn, 46.0);  // 43.87 when pinned
}

TEST(AllocBudget, MonitoredColocatedTwoByTwoAllocatesLinearly) {
  // With the invariant monitor on, ten times the transactions may cost at
  // most 15% more allocations per transaction: a copy of the leader's log
  // per acceptance fails this.  Work that grows with the log without
  // allocating in proportion, such as the walk behind each vote's witness
  // lists, passes it.
  std::size_t decided_small = 0, decided_large = 0;
  double small = colocated_two_by_two(/*monitor=*/true, kTxns, &decided_small);
  double large = colocated_two_by_two(/*monitor=*/true, 10 * kTxns, &decided_large);
  std::printf("colocated 2x2, monitor on: %.2f operator new calls per decided transaction "
              "at %d transactions, %.2f at %d\n",
              small, kTxns, large, 10 * kTxns);
  ASSERT_EQ(decided_small, static_cast<std::size_t>(kTxns));
  ASSERT_EQ(decided_large, static_cast<std::size_t>(10 * kTxns));
  EXPECT_LE(large, 1.15 * small);
  EXPECT_LE(large, 125.0);  // 119.19 when pinned (107.89 at 100)
}

TEST(AllocBudget, RemoteClientsAtFollowersFourByTwo) {
  constexpr ShardId kShards = 4;
  commit::Cluster cluster({.seed = 4, .num_shards = kShards, .shard_size = 2,
                           .enable_monitor = false});
  std::vector<commit::Client*> clients;
  for (ShardId s = 0; s < kShards; ++s) clients.push_back(&cluster.add_client());
  std::size_t decided = 0;
  double per_txn = news_per_decided(
      [&] {
        for (int i = 0; i < kTxns; ++i) {
          // Objects 2i and 2i+1 live on neighbouring shards.
          tcs::Payload p;
          p.reads = {{static_cast<ObjectId>(2 * i), 0}, {static_cast<ObjectId>(2 * i + 1), 0}};
          p.writes = {{static_cast<ObjectId>(2 * i), 1}};
          p.commit_version = 1;
          ShardId s = static_cast<ShardId>(i) % kShards;
          clients[s]->certify_remote(cluster.replica(s, 1).id(), cluster.next_txn_id(), p);
        }
        cluster.sim().run();
        std::size_t n = 0;
        for (const commit::Client* c : clients) n += c->decided_count();
        return n;
      },
      &decided);
  std::printf("remote 4x2: %.2f operator new calls per decided transaction\n", per_txn);
  ASSERT_EQ(decided, static_cast<std::size_t>(kTxns));
  EXPECT_LE(per_txn, 49.0);  // 46.61 when pinned
}

/// operator new calls made while `f` runs.
template <typename F>
std::uint64_t news_during(F f) {
  std::uint64_t before = g_news.load();
  f();
  return g_news.load() - before;
}

TEST(AllocBudget, InlineMessagesAllocateNothing) {
  const commit::AcceptAck ack{0, 1, 9, 7, tcs::Decision::kCommit};
  const commit::DecisionMsg decision{1, 0, 9, 7, tcs::Decision::kCommit, 11};
  EXPECT_EQ(news_during([&] {
              sim::AnyMessage m(ack);
              sim::AnyMessage copy = m;
              sim::AnyMessage moved = std::move(copy);
              EXPECT_EQ(moved.as<commit::AcceptAck>()->slot, 9u);
            }),
            0u);
  EXPECT_EQ(news_during([&] {
              sim::AnyMessage m(decision);
              sim::AnyMessage copy = m;
              sim::AnyMessage moved = std::move(copy);
              EXPECT_EQ(moved.as<commit::DecisionMsg>()->csn_ts, 11u);
            }),
            0u);
  EXPECT_EQ(news_during([] {
              sim::AnyMessage m;
              sim::AnyMessage copy = m;
              sim::AnyMessage moved = std::move(copy);
              EXPECT_TRUE(moved.is<sim::EmptyMessage>());
            }),
            0u);
}

TEST(AllocBudget, PrepareTakesOneBlockAndItsCopiesNone) {
  tcs::Payload payload;
  payload.reads = {{1, 3}, {2, 5}};
  payload.writes = {{1, 42}};
  payload.commit_version = 6;
  const commit::Prepare prepare{7, true, payload, commit::TxnMeta{7, {0, 1}, 5000}};
  std::uint64_t built = 0, copied = 0;
  {
    std::vector<sim::AnyMessage> copies;
    copies.reserve(2);
    sim::AnyMessage* m = nullptr;
    built = news_during([&] { m = &copies.emplace_back(prepare); });
    copied = news_during([&] {
      copies.push_back(*m);
      sim::AnyMessage moved = std::move(copies.back());
      EXPECT_EQ(moved.as<commit::Prepare>()->payload.get(), prepare.payload.get());
    });
  }
  EXPECT_EQ(built, 1u);
  EXPECT_EQ(copied, 0u);
}

/// A process that counts what it receives.
class Sink : public sim::Process {
 public:
  using Process::Process;
  void on_message(ProcessId, const sim::AnyMessage&) override { ++received; }
  std::uint64_t received = 0;
};

TEST(AllocBudget, SimulatedHopAllocatesOnlyItsMessage) {
  // A hop is Network::send, one delivery event that holds the envelope,
  // and the delivery: after the first message of each type has made its
  // channel and traffic entries, an inline message takes no block and a
  // shared one only its own.
  sim::Simulator sim(1);
  sim::Network net(sim);
  Sink a(net.runtime(), 1, "a"), b(net.runtime(), 2, "b");
  sim.add_process(&a);
  sim.add_process(&b);
  const commit::AcceptAck ack{0, 1, 9, 7, tcs::Decision::kCommit};
  tcs::Payload payload;
  payload.reads = {{1, 3}};
  payload.writes = {{1, 42}};
  payload.commit_version = 4;
  const commit::Prepare prepare{7, true, payload, commit::TxnMeta{7, {0}, 5000}};
  auto hop = [&](sim::AnyMessage m) {
    net.send(a.id(), b.id(), std::move(m));
    sim.run();
  };
  hop(sim::AnyMessage(ack));
  hop(sim::AnyMessage(prepare));
  constexpr int kHops = 100;
  EXPECT_EQ(news_during([&] {
              for (int i = 0; i < kHops; ++i) hop(sim::AnyMessage(ack));
            }),
            0u);
  EXPECT_EQ(news_during([&] {
              for (int i = 0; i < kHops; ++i) hop(sim::AnyMessage(prepare));
            }),
            static_cast<std::uint64_t>(kHops));
  EXPECT_EQ(b.received, 2u * kHops + 2u);
}

TEST(AllocBudget, SnapshotReadAllocatesOnlyItsObservations) {
  // Serving a read keeps its shards and servers on the stack and reads the
  // configuration in place: what is left is the record's observations
  // block and the history's amortised growth.
  commit::Cluster cluster({.seed = 4, .num_shards = 3, .shard_size = 2,
                           .enable_monitor = false});
  const std::vector<ObjectId> objects = {0, 1, 2};
  ASSERT_TRUE(cluster.snapshot_read(objects).has_value());
  constexpr std::uint64_t kReads = 1000;
  std::uint64_t served = 0;
  std::uint64_t news = news_during([&] {
    for (std::uint64_t i = 0; i < kReads; ++i) {
      if (cluster.snapshot_read(objects, 0, i)) ++served;
    }
  });
  EXPECT_EQ(served, kReads);
  EXPECT_GE(news, kReads);
  EXPECT_LE(news, kReads + 16);  // one block per read, plus log2(kReads) regrowths
}

/// Allocations and other-thread deletes per decided transaction.
struct ThreadedCounts {
  double news = 0;
  double other_thread_deletes = 0;
};

/// rt-fresh's phase A in miniature: 4 shards x 2 replicas on three
/// workers, the monitor off, and four scalar clients with a window of 16,
/// one at each shard's follower, running 2,000 transactions in all.
ThreadedCounts threaded_four_by_two() {
  constexpr ShardId kShards = 4;
  constexpr std::size_t kClients = 4, kTxnsPerClient = 500;
  rt::ThreadedRuntime trt({.threads = 3, .seed = 7});
  rt::CommitSystem system(trt, {.num_shards = kShards, .shard_size = 2,
                                .enable_monitor = false});
  std::vector<ProcessId> followers;
  for (ShardId s = 0; s < kShards; ++s) followers.push_back(system.replica_pid(s, 1));
  rt::LoadGen gen(trt, followers,
                  {.clients = kClients, .txns_per_client = kTxnsPerClient, .batch_size = 1,
                   .window = 16, .seed = 7});
  trt.start();
  std::uint64_t news = g_news.load();
  std::uint64_t other = g_other_thread_deletes.load();
  gen.start();
  while (!gen.done()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  news = g_news.load() - news;
  other = g_other_thread_deletes.load() - other;
  trt.stop();
  const auto decided = static_cast<double>(gen.decided());
  return {static_cast<double>(news) / decided, static_cast<double>(other) / decided};
}

TEST(AllocBudget, ThreadedRemoteClientsAtFollowersFourByTwo) {
  ThreadedCounts c = threaded_four_by_two();
  std::printf("threaded 4x2: %.2f operator new calls and %.2f other-thread deletes per "
              "decided transaction\n",
              c.news, c.other_thread_deletes);
  // 20 runs when pinned read 45.34-45.35 and 6.51-6.52 (before messages
  // shared their payloads and carried plain values inline: 70.96-70.98
  // and 19.46-19.47).
  EXPECT_LE(c.news, 48.0);
  EXPECT_LE(c.other_thread_deletes, 7.5);
}

}  // namespace
}  // namespace ratc
