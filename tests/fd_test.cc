#include <gtest/gtest.h>

#include <vector>

#include "fd/failure_detector.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace ratc::fd {
namespace {

/// Monitored process: just answers pings.
class Target : public sim::Process {
 public:
  Target(sim::Simulator& sim, sim::Network& net, ProcessId id)
      : Process(sim, id, "target"), responder_(net.runtime(), id) {}
  void on_message(ProcessId from, const sim::AnyMessage& msg) override {
    responder_.handle(from, msg);
  }

 private:
  Responder responder_;
};

/// Monitoring process.
class Watcher : public sim::Process {
 public:
  Watcher(sim::Simulator& sim, sim::Network& net, ProcessId id,
          PingMonitor::Options opts = {})
      : Process(sim, id, "watcher"), monitor(net.runtime(), id, opts) {
    monitor.subscribe(
        {.on_suspect = [this](ProcessId p) { suspected.push_back(p); },
         .on_recover = [this](ProcessId p) { recovered.push_back(p); }});
  }
  void on_message(ProcessId from, const sim::AnyMessage& msg) override {
    monitor.handle(from, msg);
  }

  PingMonitor monitor;
  std::vector<ProcessId> suspected;
  std::vector<ProcessId> recovered;
};

TEST(FailureDetector, NoSuspicionWhileAlive) {
  sim::Simulator sim(1);
  sim::Network net(sim);
  Target t(sim, net, 1);
  Watcher w(sim, net, 2);
  sim.add_process(&t);
  sim.add_process(&w);
  w.monitor.watch(t.id());
  w.monitor.start();
  sim.run_until(1000);
  EXPECT_TRUE(w.suspected.empty());
  EXPECT_FALSE(w.monitor.suspects(t.id()));
}

TEST(FailureDetector, SuspectsCrashedPeerOnce) {
  sim::Simulator sim(2);
  sim::Network net(sim);
  Target t(sim, net, 1);
  Watcher w(sim, net, 2);
  sim.add_process(&t);
  sim.add_process(&w);
  w.monitor.watch(t.id());
  w.monitor.start();
  sim.run_until(100);
  EXPECT_TRUE(w.suspected.empty());
  sim.crash(t.id());
  sim.run_until(400);
  ASSERT_EQ(w.suspected.size(), 1u);
  EXPECT_EQ(w.suspected[0], t.id());
  EXPECT_TRUE(w.monitor.suspects(t.id()));
}

TEST(FailureDetector, DetectionLatencyBoundedByTimeout) {
  sim::Simulator sim(3);
  sim::Network net(sim);
  Target t(sim, net, 1);
  Watcher w(sim, net, 2, {.ping_every = 10, .suspect_after = 30});
  sim.add_process(&t);
  sim.add_process(&w);
  w.monitor.watch(t.id());
  w.monitor.start();
  sim.run_until(50);
  sim.crash(t.id());
  // Must be suspected within timeout + ping period + slack.
  bool suspected = sim.run_until_pred([&] { return !w.suspected.empty(); });
  ASSERT_TRUE(suspected || sim.run_until(95) > 0 || !w.suspected.empty());
  sim.run_until(100);
  ASSERT_FALSE(w.suspected.empty());
  EXPECT_LE(sim.now(), 100u);
}

TEST(FailureDetector, WatchesMultiplePeers) {
  sim::Simulator sim(4);
  sim::Network net(sim);
  Target a(sim, net, 1), b(sim, net, 2), c(sim, net, 3);
  Watcher w(sim, net, 9);
  for (auto* t : {&a, &b, &c}) sim.add_process(t);
  sim.add_process(&w);
  for (auto* t : {&a, &b, &c}) w.monitor.watch(t->id());
  w.monitor.start();
  sim.run_until(100);
  sim.crash(b.id());
  sim.run_until(400);
  ASSERT_EQ(w.suspected.size(), 1u);
  EXPECT_EQ(w.suspected[0], b.id());
}

TEST(FailureDetector, IdleMonitorLetsTheSimulationQuiesce) {
  // Ticking pauses while nothing is watched, so an embedded monitor never
  // keeps the event queue alive — sim.run() must return — and resumes when
  // a new peer is watched.
  sim::Simulator sim(6);
  sim::Network net(sim);
  Target t(sim, net, 1);
  Watcher w(sim, net, 2);
  sim.add_process(&t);
  sim.add_process(&w);
  w.monitor.start();  // nothing watched: no ticking
  sim.run();
  EXPECT_TRUE(sim.idle());

  w.monitor.watch(t.id());  // resumes ticking
  sim.crash(t.id());
  sim.run_until(sim.now() + 400);
  ASSERT_EQ(w.suspected.size(), 1u);
  w.monitor.unwatch(t.id());
  sim.run();  // the dangling tick self-pauses; the queue drains
  EXPECT_TRUE(sim.idle());
}

/// Target that can be muted (pings answered or dropped on demand),
/// modelling a one-way-partitioned but live peer.
class MutableTarget : public sim::Process {
 public:
  MutableTarget(sim::Simulator& sim, sim::Network& net, ProcessId id)
      : Process(sim, id, "mutable"), responder_(net.runtime(), id) {}
  void on_message(ProcessId from, const sim::AnyMessage& msg) override {
    if (!muted) responder_.handle(from, msg);
  }
  bool muted = false;

 private:
  Responder responder_;
};

TEST(FailureDetector, RecoveryCallbackFiresWhenSuspectAnswersAgain) {
  sim::Simulator sim(7);
  sim::Network net(sim);
  MutableTarget t(sim, net, 1);
  Watcher w(sim, net, 2);
  sim.add_process(&t);
  sim.add_process(&w);
  w.monitor.watch(t.id());
  w.monitor.start();
  t.muted = true;  // alive but silent: a false suspicion in the making
  sim.run_until(200);
  ASSERT_EQ(w.suspected.size(), 1u);
  EXPECT_TRUE(w.recovered.empty());
  t.muted = false;  // the "partition" heals
  sim.run_until(400);
  ASSERT_EQ(w.recovered.size(), 1u);
  EXPECT_EQ(w.recovered[0], t.id());
  EXPECT_FALSE(w.monitor.suspects(t.id()));
  // A second silence fires a fresh suspicion edge.
  t.muted = true;
  sim.run_until(700);
  EXPECT_EQ(w.suspected.size(), 2u);
}

TEST(FailureDetector, MultipleSubscribersAllNotified) {
  sim::Simulator sim(8);
  sim::Network net(sim);
  Target t(sim, net, 1);
  Watcher w(sim, net, 2);
  sim.add_process(&t);
  sim.add_process(&w);
  std::vector<ProcessId> second;
  w.monitor.subscribe({.on_suspect = [&](ProcessId p) { second.push_back(p); }});
  w.monitor.watch(t.id());
  w.monitor.start();
  sim.crash(t.id());
  sim.run_until(400);
  ASSERT_EQ(w.suspected.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0], t.id());
}

TEST(FailureDetector, CallbackMayUnsubscribeItselfDuringDispatch) {
  // Regression: a suspicion callback that unregisters its own subscription
  // destroys the std::function being executed if dispatch iterates the live
  // registry (iterator/self invalidation).  The dispatcher must copy before
  // invoking and survive the erase; later edges must skip the gone
  // subscriber.
  sim::Simulator sim(11);
  sim::Network net(sim);
  MutableTarget t(sim, net, 1);
  Watcher w(sim, net, 2);
  sim.add_process(&t);
  sim.add_process(&w);
  std::vector<ProcessId> one_shot;
  PingMonitor::SubscriptionId sub = 0;
  sub = w.monitor.subscribe({.on_suspect = [&](ProcessId p) {
    one_shot.push_back(p);
    w.monitor.unsubscribe(sub);  // self-unsubscribe mid-dispatch
  }});
  w.monitor.watch(t.id());
  w.monitor.start();
  t.muted = true;
  sim.run_until(200);
  ASSERT_EQ(one_shot.size(), 1u);
  ASSERT_EQ(w.suspected.size(), 1u);  // the Watcher's own subscription ran too
  // A fresh suspicion edge: the one-shot subscriber must stay silent.
  t.muted = false;
  sim.run_until(400);
  t.muted = true;
  sim.run_until(700);
  EXPECT_EQ(w.suspected.size(), 2u);
  EXPECT_EQ(one_shot.size(), 1u);
}

TEST(FailureDetector, CallbackUnsubscribingAPeerSuppressesItMidDispatch) {
  // The Watcher's own subscription (id 1) fires first and tears down a
  // later subscription before the dispatcher reaches it: the torn-down
  // callback must NOT fire — its owner may already be destroyed.
  sim::Simulator sim(12);
  sim::Network net(sim);
  Target t(sim, net, 1);
  sim.add_process(&t);

  class TearingWatcher : public sim::Process {
   public:
    TearingWatcher(sim::Simulator& sim, sim::Network& net, ProcessId id)
        : Process(sim, id, "tearing"), monitor(net.runtime(), id) {
      monitor.subscribe({.on_suspect = [this](ProcessId) {
        ++first_fired;
        monitor.unsubscribe(second_sub);
      }});
      second_sub = monitor.subscribe(
          {.on_suspect = [this](ProcessId) { ++second_fired; }});
    }
    void on_message(ProcessId from, const sim::AnyMessage& msg) override {
      monitor.handle(from, msg);
    }
    PingMonitor monitor;
    PingMonitor::SubscriptionId second_sub = 0;
    int first_fired = 0;
    int second_fired = 0;
  };
  TearingWatcher w(sim, net, 2);
  sim.add_process(&w);
  w.monitor.watch(t.id());
  w.monitor.start();
  sim.crash(t.id());
  sim.run_until(400);
  EXPECT_GE(w.first_fired, 1);
  EXPECT_EQ(w.second_fired, 0) << "unsubscribed-mid-dispatch callback fired";
}

TEST(FailureDetector, SubscriberAddedDuringDispatchMissesTheInFlightEdge) {
  sim::Simulator sim(13);
  sim::Network net(sim);
  MutableTarget t(sim, net, 1);
  Watcher w(sim, net, 2);
  sim.add_process(&t);
  sim.add_process(&w);
  std::vector<ProcessId> late;
  bool added = false;
  w.monitor.subscribe({.on_suspect = [&](ProcessId) {
    if (added) return;
    added = true;
    w.monitor.subscribe({.on_suspect = [&](ProcessId p) { late.push_back(p); }});
  }});
  w.monitor.watch(t.id());
  w.monitor.start();
  t.muted = true;
  sim.run_until(200);
  EXPECT_EQ(w.suspected.size(), 1u);
  EXPECT_TRUE(late.empty()) << "mid-dispatch subscriber saw the current edge";
  t.muted = false;
  sim.run_until(400);
  t.muted = true;
  sim.run_until(700);
  EXPECT_EQ(late.size(), 1u);  // subsequent edges reach it
}

TEST(FailureDetector, UnsubscribeStopsNotifications) {
  sim::Simulator sim(9);
  sim::Network net(sim);
  Target t(sim, net, 1);
  Watcher w(sim, net, 2);
  sim.add_process(&t);
  sim.add_process(&w);
  std::vector<ProcessId> second;
  auto sub = w.monitor.subscribe({.on_suspect = [&](ProcessId p) { second.push_back(p); }});
  w.monitor.unsubscribe(sub);
  w.monitor.watch(t.id());
  w.monitor.start();
  sim.crash(t.id());
  sim.run_until(400);
  EXPECT_EQ(w.suspected.size(), 1u);  // the Watcher's own subscription stays
  EXPECT_TRUE(second.empty());
}

TEST(FailureDetector, EnsureWatchedPreservesSilenceWindow) {
  sim::Simulator sim(10);
  sim::Network net(sim);
  Target t(sim, net, 1);
  Watcher w(sim, net, 2);
  sim.add_process(&t);
  sim.add_process(&w);
  w.monitor.watch(t.id());
  w.monitor.start();
  sim.run_until(50);
  sim.crash(t.id());
  sim.run_until(200);
  ASSERT_TRUE(w.monitor.suspects(t.id()));
  // ensure_watched must not reset the accumulated suspicion the way a
  // plain watch() would, and reports it so callers can act immediately.
  EXPECT_TRUE(w.monitor.ensure_watched(t.id()));
  EXPECT_TRUE(w.monitor.suspects(t.id()));
  // For an unwatched peer it starts watching and reports no suspicion.
  EXPECT_FALSE(w.monitor.ensure_watched(777));
  EXPECT_TRUE(w.monitor.watching(777));
}

TEST(FailureDetector, UnwatchStopsSuspicion) {
  sim::Simulator sim(5);
  sim::Network net(sim);
  Target t(sim, net, 1);
  Watcher w(sim, net, 2);
  sim.add_process(&t);
  sim.add_process(&w);
  w.monitor.watch(t.id());
  w.monitor.start();
  sim.run_until(50);
  w.monitor.unwatch(t.id());
  sim.crash(t.id());
  sim.run_until(500);
  EXPECT_TRUE(w.suspected.empty());
}

}  // namespace
}  // namespace ratc::fd
