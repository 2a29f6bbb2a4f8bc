// Allocation budget of the certification path on the simulator.
//
// A transaction's CPU on the threaded runtime is the sum of a dozen small
// handlers, and heap traffic is a large share of each.  This binary replaces
// the global operator new/delete with counting versions that forward to
// malloc/free (so ASan still checks every block) and counts operator new
// calls per decided transaction in two fixed simulator shapes:
//
//   * colocated: bench_micro's BM_EndToEndCertification — 2 shards x 2
//     replicas, one client co-located with a replica, 100 transactions,
//     seed 4; also with the invariant monitor on, at 100 and 1,000
//     transactions, where the count per transaction must not grow with
//     the log (it counts allocations, not work);
//   * remote: 4 shards x 2 replicas, four clients, each certifying through
//     the follower of its own shard by message, 100 two-shard transactions.
//
// The simulator is deterministic, so each count is exact for a given
// standard library; the bounds sit about 5% above the counts measured when
// they were pinned, which absorbs another libstdc++ version but not a new
// allocation on every transaction.  tests/README.md says how to re-pin them.
// The test needs its own binary because the replacement is program-wide.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "commit/cluster.h"

namespace {

std::atomic<std::uint64_t> g_news{0};

void* counted_new(std::size_t n) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_new_or_throw(std::size_t n) {
  void* p = counted_new(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_new_or_throw(n); }
void* operator new[](std::size_t n) { return counted_new_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_new(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

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
  EXPECT_LE(per_txn, 84.0);  // 80.19 when pinned
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
  EXPECT_LE(large, 164.0);  // 156.10 when pinned (144.21 at 100)
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
  EXPECT_LE(per_txn, 92.0);  // 87.49 when pinned
}

}  // namespace
}  // namespace ratc
