// Unit and stress tests for the threaded runtime (src/rt/): inbox FIFO
// across its lanes, timer ordering, crash-stop semantics matching
// Simulator::crash, graceful shutdown with mail in flight — plus the
// sim-vs-threaded twin tests: the same commit-protocol workload runs on the
// deterministic simulator and on real threads, and the threaded histories
// must satisfy the same monitor / TCS-LL / linearization checkers.
//
// The whole file runs under -DRATC_SANITIZE=THREAD in CI; the stress cases
// exist mainly to give TSan interleavings to chew on.
// RATC_RT_STRESS_TXNS scales the big stress run (default 10000).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "checker/conflict_graph.h"
#include "checker/linearization.h"
#include "checker/tcsll.h"
#include "commit/client.h"
#include "commit/cluster.h"
#include "rt/commit_system.h"
#include "rt/inbox.h"
#include "rt/loadgen.h"
#include "rt/threaded_runtime.h"
#include "store/stack_harness.h"

namespace ratc {
namespace {

using namespace std::chrono_literals;

struct SeqMsg {
  static constexpr const char* kName = "SEQ";
  ProcessId producer = 0;
  std::uint64_t n = 0;
};

std::size_t stress_txns() {
  const char* v = std::getenv("RATC_RT_STRESS_TXNS");
  if (v == nullptr || *v == '\0') return 10000;
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

/// Polls `pred` until true or `limit` elapses.
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds limit = 30s) {
  auto deadline = std::chrono::steady_clock::now() + limit;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

// --- Inbox ------------------------------------------------------------------

/// Drains `inbox` until `total` envelopes arrived, checking that each
/// sender's sequence numbers arrive gapless and in order.
void expect_fifo_per_sender(rt::Inbox& inbox, std::uint64_t total) {
  std::map<ProcessId, std::uint64_t> next_expected;
  std::uint64_t received = 0;
  bool ok = true;
  while (ok && received < total) {
    std::size_t n = inbox.drain(64, [&](rt::Envelope& e) {
      const SeqMsg* m = e.msg.as<SeqMsg>();
      // The FIFO contract: per sender, strictly sequential.
      if (m == nullptr || m->producer != e.from || m->n != next_expected[e.from]) {
        ADD_FAILURE() << "sender " << e.from << " expected " << next_expected[e.from];
        ok = false;
      }
      ++next_expected[e.from];
      ++received;
    });
    if (n == 0) std::this_thread::yield();
  }
  EXPECT_EQ(inbox.drain(64, [](rt::Envelope&) {}), 0u);
}

TEST(Inbox, FifoPerSender) {
  // One producer on each worker lane plus two sharing the shared lane;
  // 20,000 envelopes each crosses many block boundaries on every lane.
  constexpr std::size_t kWorkers = 3;
  constexpr std::uint64_t kPerProducer = 20000;
  rt::Inbox inbox(kWorkers);
  const std::vector<std::size_t> lanes = {0, 1, 2, inbox.shared_lane(), inbox.shared_lane()};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < lanes.size(); ++p) {
    producers.emplace_back([&inbox, lane = lanes[p], p] {
      auto from = static_cast<ProcessId>(p);
      for (std::uint64_t n = 0; n < kPerProducer; ++n) {
        inbox.push(lane, rt::Envelope{from, sim::AnyMessage(SeqMsg{from, n})});
      }
    });
  }
  expect_fifo_per_sender(inbox, lanes.size() * kPerProducer);
  for (auto& t : producers) t.join();
}

TEST(Inbox, BurstBeyondTheOldRingDoesNotBlock) {
  // Over three 65,536-cell rings' worth, all pushed before the consumer
  // starts: an unbounded queue never makes the producer wait for it.
  constexpr std::uint64_t kTotal = 200000;
  rt::Inbox inbox(1);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    for (std::uint64_t n = 0; n < kTotal; ++n) {
      inbox.push(0, rt::Envelope{1, sim::AnyMessage(SeqMsg{1, n})});
    }
    pushed.store(true);
  });
  EXPECT_TRUE(eventually([&] { return pushed.load(); }));
  // Draining also frees a producer that did block, so a failure ends here.
  expect_fifo_per_sender(inbox, kTotal);
  producer.join();
}

// --- ThreadedRuntime primitives ---------------------------------------------

/// Records deliveries; used as both counter and echo.
class Recorder : public sim::Process {
 public:
  Recorder(rt::Runtime& rt, ProcessId id, bool echo = false)
      : Process(rt, id, "recorder" + std::to_string(id)), echo_(echo) {}

  void on_message(ProcessId from, const sim::AnyMessage& msg) override {
    received_.fetch_add(1, std::memory_order_acq_rel);
    if (echo_) rt().send(id(), from, msg);
  }

  std::uint64_t received() const { return received_.load(std::memory_order_acquire); }

 private:
  bool echo_;
  std::atomic<std::uint64_t> received_{0};
};

TEST(ThreadedRuntime, TimersFireInDeadlineOrder) {
  rt::ThreadedRuntime trt({.threads = 2, .tick_us = 200, .seed = 7});
  Recorder owner(trt, 1);
  trt.spawn(&owner);
  // Only the owner's worker fires these, so `order` needs no lock.
  std::vector<int> order;
  std::atomic<std::size_t> fired{0};
  auto arm = [&](Duration delay, int tag) {
    trt.schedule_for(1, delay, [&order, &fired, tag] {
      order.push_back(tag);
      fired.fetch_add(1, std::memory_order_acq_rel);
    });
  };
  arm(50, 50);
  arm(10, 10);
  arm(30, 30);
  arm(20, 20);
  arm(40, 40);
  arm(10, 11);  // same deadline: submission order breaks the tie
  trt.start();
  ASSERT_TRUE(eventually([&] { return fired.load() == 6; }));
  trt.stop();
  EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 30, 40, 50}));
}

TEST(ThreadedRuntime, CrashStopsDeliveriesAndTimers) {
  rt::ThreadedRuntime trt({.threads = 2, .seed = 3});
  Recorder a(trt, 1);
  Recorder b(trt, 2);
  trt.spawn(&a);
  trt.spawn(&b);
  trt.start();
  for (int i = 0; i < 10; ++i) trt.send(2, 1, sim::AnyMessage(SeqMsg{2, 0}));
  ASSERT_TRUE(eventually([&] { return a.received() == 10; }));

  EXPECT_FALSE(trt.crashed(1));
  trt.crash(1);
  EXPECT_TRUE(trt.crashed(1));
  // Like Simulator::crash: no further deliveries, timers are discarded at
  // fire time, and a crashed sender sends nothing.
  std::atomic<bool> timer_fired{false};
  trt.schedule_for(1, 1, [&] { timer_fired.store(true); });
  for (int i = 0; i < 10; ++i) trt.send(2, 1, sim::AnyMessage(SeqMsg{2, 0}));
  std::uint64_t b_before = b.received();
  trt.send(1, 2, sim::AnyMessage(SeqMsg{1, 0}));  // crashed sender
  std::this_thread::sleep_for(50ms);
  trt.stop();
  EXPECT_EQ(a.received(), 10u);
  EXPECT_EQ(b.received(), b_before);
  EXPECT_FALSE(timer_fired.load());
  EXPECT_GE(trt.dropped_count(), 10u);
}

/// Counts observer callbacks; they arrive on several threads.
struct CountingObserver : sim::NetworkObserver {
  void on_send(Time, ProcessId, ProcessId, const sim::AnyMessage&) override { ++sends; }
  void on_deliver(Time, ProcessId, ProcessId, const sim::AnyMessage&) override {
    ++deliveries;
  }
  void on_drop(Time, ProcessId, ProcessId, const sim::AnyMessage&) override { ++drops; }
  std::atomic<std::uint64_t> sends{0}, deliveries{0}, drops{0};
};

TEST(ThreadedRuntime, MailToACrashedReceiverIsReportedAsDropped) {
  // Mail already queued when its receiver crashes is dropped at delivery,
  // and observers hear of it, as under sim::Network.
  rt::ThreadedRuntime trt({.threads = 2, .seed = 13});
  CountingObserver obs;
  trt.add_observer(&obs);
  Recorder a(trt, 1);
  Recorder b(trt, 2);
  trt.spawn(&a);
  trt.spawn(&b);
  std::atomic<bool> parked{false}, release{false};
  trt.schedule_for(1, 0, [&] {
    parked.store(true);
    while (!release.load()) std::this_thread::sleep_for(1ms);
  });
  trt.start();
  ASSERT_TRUE(eventually([&] { return parked.load(); }));
  for (int i = 0; i < 10; ++i) trt.send(2, 1, sim::AnyMessage(SeqMsg{2, 0}));
  trt.crash(1);
  release.store(true);
  ASSERT_TRUE(eventually([&] { return trt.dropped_count() >= 10; }));
  trt.stop();
  EXPECT_EQ(obs.sends.load(), 10u);
  EXPECT_EQ(obs.deliveries.load(), 0u);
  EXPECT_EQ(obs.drops.load(), 10u);
  EXPECT_EQ(a.received(), 0u);
}

TEST(ThreadedRuntime, GracefulShutdownWithMailInFlight) {
  // Echo storm: every delivery sends the message back, so mail is always in
  // flight; stop() must cut it off without hanging or crashing.
  rt::ThreadedRuntime trt({.threads = 4, .seed = 11});
  std::vector<std::unique_ptr<Recorder>> procs;
  for (ProcessId id = 1; id <= 8; ++id) {
    procs.push_back(std::make_unique<Recorder>(trt, id, /*echo=*/true));
    trt.spawn(procs.back().get());
  }
  trt.start();
  for (ProcessId id = 1; id <= 8; ++id) {
    trt.send(id, (id % 8) + 1, sim::AnyMessage(SeqMsg{id, 0}));
  }
  ASSERT_TRUE(eventually([&] { return trt.delivered_count() > 10000; }));
  trt.stop();
  std::uint64_t delivered = trt.delivered_count();
  EXPECT_GT(delivered, 10000u);
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(trt.delivered_count(), delivered);  // really stopped
  trt.stop();  // idempotent
}

// --- sim-vs-threaded twins ---------------------------------------------------

std::vector<std::pair<TxnId, tcs::Payload>> conflict_free_workload(std::size_t n) {
  // Disjoint read/write sets: every certifier must commit every item, on
  // either runtime, under any interleaving — exact decision agreement.
  std::vector<std::pair<TxnId, tcs::Payload>> out;
  for (std::size_t i = 0; i < n; ++i) {
    tcs::Payload p;
    p.reads = {{static_cast<ObjectId>(2 * i), 0}, {static_cast<ObjectId>(2 * i + 1), 0}};
    p.writes = {{static_cast<ObjectId>(2 * i), 1}};
    p.commit_version = 1;
    out.emplace_back(static_cast<TxnId>(i + 1), p);
  }
  return out;
}

TEST(SimVsThreaded, DecisionAgreementOnConflictFreeWorkload) {
  auto workload = conflict_free_workload(20);

  // Simulator twin.
  std::map<TxnId, tcs::Decision> sim_decisions;
  {
    commit::Cluster cluster({.seed = 5, .num_shards = 2, .shard_size = 2});
    commit::Client& client = cluster.add_client();
    for (const auto& [txn, p] : workload) {
      client.certify_remote(cluster.replica(0, 1).id(), txn, p);
    }
    ASSERT_TRUE(cluster.sim().run_until_pred(
        [&] { return client.decided_count() == workload.size(); }, 1'000'000));
    EXPECT_EQ(cluster.verify(), "");
    for (const auto& [txn, p] : workload) {
      (void)p;
      sim_decisions[txn] = *client.decision(txn);
    }
    auto lin = checker::check_linearization(cluster.history(), cluster.certifier());
    EXPECT_TRUE(lin.ok) << lin.error;
  }

  // Threaded twin: same payloads, same topology, real threads, with the
  // monitor tapping sends/deliveries exactly as the sim network does.
  std::map<TxnId, tcs::Decision> rt_decisions;
  {
    rt::ThreadedRuntime trt({.threads = 4, .seed = 5});
    rt::CommitSystem system(trt, {.num_shards = 2, .shard_size = 2});
    trt.add_observer(system.monitor());
    tcs::History history;
    commit::Client client(trt, rt::CommitSystem::kClientBase, &history);
    trt.spawn(&client);
    std::atomic<std::size_t> decided{0};
    client.on_decision = [&](TxnId, tcs::Decision) {
      decided.fetch_add(1, std::memory_order_acq_rel);
    };
    ProcessId coordinator = system.replica(0, 1).id();
    for (std::size_t i = 0; i < workload.size(); ++i) {
      auto [txn, p] = workload[i];
      trt.schedule_for(client.id(), static_cast<Duration>(i + 1),
                       [&client, coordinator, txn, p] {
                         client.certify_remote(coordinator, txn, p);
                       });
    }
    trt.start();
    ASSERT_TRUE(eventually([&] { return decided.load() == workload.size(); }));
    trt.stop();

    // Post-stop, the workers are joined: client/monitor state is plain data.
    EXPECT_TRUE(system.monitor()->violations().empty())
        << system.monitor()->violations().summary();
    EXPECT_TRUE(history.complete());
    EXPECT_TRUE(history.conflicting_decisions().empty());
    auto tcsll = checker::check_tcsll(system.monitor()->tcsll_input(
        history, system.shard_map(), system.certifier()));
    EXPECT_TRUE(tcsll.ok) << tcsll.summary();
    auto lin = checker::check_linearization(history, system.certifier());
    EXPECT_TRUE(lin.ok) << lin.error;
    for (const auto& [txn, p] : workload) {
      (void)p;
      ASSERT_TRUE(history.decision_of(txn).has_value());
      rt_decisions[txn] = *history.decision_of(txn);
    }
  }

  // Exact agreement: conflict-free, so both runtimes must commit everything.
  EXPECT_EQ(sim_decisions, rt_decisions);
  for (const auto& [txn, d] : rt_decisions) {
    EXPECT_EQ(d, tcs::Decision::kCommit) << "txn " << txn;
  }
}

TEST(SimVsThreaded, ContendedWorkloadPassesCheckersOnThreads) {
  // Contended mix via the load generator (real aborts, real races between
  // coordinators), full safety-checker stack on the threaded history.
  rt::ThreadedRuntime trt({.threads = 4, .seed = 23});
  rt::CommitSystem system(trt, {.num_shards = 2, .shard_size = 2});
  trt.add_observer(system.monitor());
  rt::LoadGen gen(trt, system.coordinators(),
                  {.clients = 8, .txns_per_client = 2, .batch_size = 1,
                   .window = 1, .keyspace = 6, .seed = 23});
  trt.start();
  gen.start();
  ASSERT_TRUE(eventually([&] { return gen.done(); }));
  trt.stop();

  EXPECT_TRUE(system.monitor()->violations().empty())
      << system.monitor()->violations().summary();
  tcs::History history = gen.merged_history();
  EXPECT_TRUE(history.complete());
  EXPECT_TRUE(history.conflicting_decisions().empty());
  auto tcsll = checker::check_tcsll(system.monitor()->tcsll_input(
      history, system.shard_map(), system.certifier()));
  EXPECT_TRUE(tcsll.ok) << tcsll.summary();
  auto lin = checker::check_linearization(history, system.certifier());
  EXPECT_TRUE(lin.ok) << lin.error;
}

// --- reconfiguration on threads ------------------------------------------------

/// Reads `read()` on `pid`'s own worker — a process's state may only be
/// touched there while the runtime runs — and returns the value.
template <typename Read>
auto read_on_worker(rt::ThreadedRuntime& trt, ProcessId pid, Read read) {
  auto value = std::make_shared<std::promise<decltype(read())>>();
  auto ready = value->get_future();
  trt.schedule_for(pid, 0, [value, read] { value->set_value(read()); });
  return ready.get();
}

TEST(ThreadedReconfiguration, SpareReplacesCrashedFollower) {
  // One Fig. 1 reconfiguration on real threads: the locked spare pool, the
  // NEW_CONFIG/NEW_STATE install and the monitor's epoch-install checks.
  rt::ThreadedRuntime trt({.threads = 4, .seed = 41});
  rt::CommitSystem system(trt, {.num_shards = 2, .shard_size = 2, .spares_per_shard = 1});
  trt.add_observer(system.monitor());
  commit::Replica& leader = system.replica(0, 0);
  commit::Replica& follower = system.replica(0, 1);
  commit::Replica& spare = system.replica(0, 2);
  // Spawns are only legal before start(); the crashed follower must not
  // coordinate, so the coordinators are listed explicitly.
  const std::vector<ProcessId> coordinators = {leader.id(), system.replica(1, 0).id(),
                                               system.replica(1, 1).id()};
  rt::LoadGen gen(trt, coordinators,
                  {.clients = 4, .txns_per_client = 25, .batch_size = 1, .window = 2,
                   .keyspace = 64, .seed = 41});
  trt.start();

  trt.crash(follower.id());
  trt.schedule_for(leader.id(), 0, [&leader] { leader.reconfigure(0); });
  ASSERT_TRUE(eventually(
      [&] { return read_on_worker(trt, spare.id(), [&spare] { return spare.epoch(); }) == 2; }));
  // Every coordinator routes by its own view of shard 0 (CONFIG_CHANGE).
  for (ProcessId pid : coordinators) {
    const commit::Replica& r = system.replica_by_pid(pid);
    auto view_epoch = [&r] { return r.epoch_of(0); };
    ASSERT_TRUE(eventually([&] { return read_on_worker(trt, pid, view_epoch) == 2; }));
  }

  // Shard 0 decides only with a live follower: finishing proves the spare
  // took the crashed follower's place.
  gen.start();
  ASSERT_TRUE(eventually([&] { return gen.done(); }, 120s));
  trt.stop();

  EXPECT_TRUE(system.monitor()->violations().empty())
      << system.monitor()->violations().summary();
  tcs::History history = gen.merged_history();
  EXPECT_TRUE(history.complete());
  EXPECT_TRUE(history.conflicting_decisions().empty());
  auto cg = checker::check_conflict_graph(history);
  EXPECT_TRUE(cg.ok) << cg.error;
  auto tcsll = checker::check_tcsll(system.monitor()->tcsll_input(
      history, system.shard_map(), system.certifier()));
  EXPECT_TRUE(tcsll.ok) << tcsll.summary();
}

// --- stress ------------------------------------------------------------------

TEST(ThreadedStress, TenThousandTxnsSatisfySerializability) {
  const std::size_t txns = stress_txns();
  rt::ThreadedRuntime trt({.threads = 4, .seed = 99});
  rt::CommitSystem system(trt, {.num_shards = 4, .shard_size = 2});
  trt.add_observer(system.monitor());
  rt::LoadGen::Options lopt;
  lopt.clients = 32;
  lopt.txns_per_client = std::max<std::size_t>(txns / 32, 1);
  lopt.batch_size = 4;
  lopt.window = 2;
  lopt.keyspace = 4096;
  lopt.seed = 99;
  rt::LoadGen gen(trt, system.coordinators(), lopt);
  trt.start();
  gen.start();
  ASSERT_TRUE(eventually([&] { return gen.done(); }, 300s));
  trt.stop();

  EXPECT_TRUE(system.monitor()->violations().empty())
      << system.monitor()->violations().summary();
  tcs::History history = gen.merged_history();
  EXPECT_TRUE(history.complete());
  EXPECT_TRUE(history.conflicting_decisions().empty());
  EXPECT_EQ(history.all_txns().size(), gen.target_txns());
  // The exact linearization checker is exponential; at 10k transactions the
  // polynomial conflict-graph oracle (MVSG acyclicity) is the right tool.
  auto cg = checker::check_conflict_graph(history);
  EXPECT_TRUE(cg.ok) << cg.error;
  // TCS-LL is polynomial and runs at full size.
  auto tcsll = checker::check_tcsll(system.monitor()->tcsll_input(
      history, system.shard_map(), system.certifier()));
  EXPECT_TRUE(tcsll.ok) << tcsll.summary();
}

}  // namespace
}  // namespace ratc
