#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "harness/paxos_host.h"
#include "paxos/replica.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace ratc::paxos {
namespace {

/// Drops the CommitSlot messages to `to` for slots above `from_slot`, so
/// that member accepts them but never learns them chosen.
class DropCommits : public sim::FaultInjector {
 public:
  DropCommits(ProcessId to, Slot from_slot) : to_(to), from_slot_(from_slot) {}
  sim::MessageFate on_message(Time, ProcessId, ProcessId to, const sim::AnyMessage& msg) override {
    const auto* c = msg.as<CommitSlot>();
    return {.drop = c != nullptr && to == to_ && c->slot > from_slot_};
  }

 private:
  ProcessId to_;
  Slot from_slot_;
};

/// Records the slots of the Phase1b and Phase2a messages sent.
class PhaseTap : public sim::NetworkObserver {
 public:
  void on_send(Time, ProcessId from, ProcessId, const sim::AnyMessage& msg) override {
    if (const auto* p1b = msg.as<Phase1b>()) {
      for (const auto& [slot, entry] : p1b->accepted) phase1b_slots.push_back(slot);
    } else if (const auto* p2a = msg.as<Phase2a>()) {
      phase2a.push_back({from, p2a->slot, p2a->cmd});
    }
  }
  struct Proposal {
    ProcessId from;
    Slot slot;
    sim::AnyMessage cmd;
  };
  std::vector<Slot> phase1b_slots;
  std::vector<Proposal> phase2a;
};

TEST(Paxos, AcceptorBehindCandidateSendsNothingTheCandidateApplied) {
  sim::Simulator sim(6);
  sim::Network net(sim);
  auto g = harness::spawn_paxos_group(net.runtime(), 3);
  DropCommits drop(g[2]->id(), 0);  // g[2] accepts every slot, learns none
  net.set_fault_injector(&drop);
  for (int i = 0; i < 5; ++i) g[0]->submit(i);
  sim.run();
  ASSERT_EQ(g[1]->paxos().last_applied(), 5u);
  ASSERT_EQ(g[2]->paxos().last_applied(), 0u);
  net.set_fault_injector(nullptr);

  PhaseTap tap;
  net.add_observer(&tap);
  g[1]->paxos().start_election();
  sim.run();
  EXPECT_TRUE(g[1]->paxos().is_leader());
  EXPECT_TRUE(tap.phase1b_slots.empty());  // both acceptors' slots are applied at g[1]
  // Nothing is re-proposed: only the new leader's visibility no-op.
  ASSERT_EQ(tap.phase2a.size(), 2u);
  for (const auto& p : tap.phase2a) {
    EXPECT_EQ(p.slot, 6u);
    EXPECT_TRUE(p.cmd.is<Noop>());
  }
}

TEST(Paxos, LaggingCandidateReproposesExactlyTheUnchosenAboveItsPrefix) {
  sim::Simulator sim(7);
  sim::Network net(sim);
  auto g = harness::spawn_paxos_group(net.runtime(), 3);
  DropCommits drop(g[2]->id(), 2);  // g[2] learns slots 1-2 and accepts 3-5
  net.set_fault_injector(&drop);
  for (int i = 0; i < 5; ++i) g[0]->submit(10 + i);
  sim.run();
  ASSERT_EQ(g[2]->paxos().last_applied(), 2u);
  net.set_fault_injector(nullptr);

  PhaseTap tap;
  net.add_observer(&tap);
  sim.crash(g[0]->id());
  g[2]->paxos().start_election();
  sim.run();
  EXPECT_TRUE(g[2]->paxos().is_leader());
  for (Slot slot : tap.phase1b_slots) EXPECT_GT(slot, 2u);
  // Slots 3-5 carry their accepted values, then the visibility no-op; one
  // Phase2a to each of the two peers per slot.
  std::vector<Slot> slots;
  for (const auto& p : tap.phase2a) {
    EXPECT_EQ(p.from, g[2]->id());
    if (p.slot <= 5) {
      ASSERT_TRUE(p.cmd.is<harness::PaxosCmd>());
      EXPECT_EQ(p.cmd.as<harness::PaxosCmd>()->value, static_cast<int>(10 + p.slot - 1));
    } else {
      EXPECT_TRUE(p.cmd.is<Noop>());
    }
    slots.push_back(p.slot);
  }
  EXPECT_EQ(slots, (std::vector<Slot>{3, 3, 4, 4, 5, 5, 6, 6}));
  EXPECT_EQ(g[2]->applied(), (std::vector<int>{10, 11, 12, 13, 14}));
  EXPECT_EQ(g[1]->applied(), g[2]->applied());
}

TEST(Paxos, ReplicatesInOrder) {
  sim::Simulator sim(1);
  sim::Network net(sim);
  auto g = harness::spawn_paxos_group(net.runtime(), 3);
  for (int i = 0; i < 10; ++i) g[0]->submit(i);
  sim.run();
  std::vector<int> expect{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  for (const auto& host : g) EXPECT_EQ(host->applied(), expect);
}

TEST(Paxos, ForwardsSubmissionsToLeader) {
  sim::Simulator sim(2);
  sim::Network net(sim);
  auto g = harness::spawn_paxos_group(net.runtime(), 3);
  g[1]->submit(7);  // non-leader
  g[2]->submit(8);  // non-leader
  sim.run();
  for (const auto& host : g) {
    ASSERT_EQ(host->applied().size(), 2u);
  }
  EXPECT_EQ(g[0]->applied(), g[1]->applied());
  EXPECT_EQ(g[0]->applied(), g[2]->applied());
}

TEST(Paxos, SingleReplicaGroupWorks) {
  sim::Simulator sim(3);
  sim::Network net(sim);
  auto g = harness::spawn_paxos_group(net.runtime(), 1);
  g[0]->submit(1);
  g[0]->submit(2);
  sim.run();
  EXPECT_EQ(g[0]->applied(), (std::vector<int>{1, 2}));
}

TEST(Paxos, LeaderFailoverPreservesChosenCommands) {
  sim::Simulator sim(4);
  sim::Network net(sim);
  auto g = harness::spawn_paxos_group(net.runtime(), 3);
  for (int i = 0; i < 5; ++i) g[0]->submit(i);
  sim.run();
  ASSERT_EQ(g[1]->applied().size(), 5u);

  sim.crash(g[0]->id());
  g[1]->paxos().start_election();
  sim.run();
  EXPECT_TRUE(g[1]->paxos().is_leader());

  for (int i = 5; i < 8; ++i) g[1]->submit(i);
  sim.run();
  std::vector<int> expect{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(g[1]->applied(), expect);
  EXPECT_EQ(g[2]->applied(), expect);
}

TEST(Paxos, FailoverRecoversInFlightCommand) {
  sim::Simulator sim(5);
  sim::Network net(sim);
  auto g = harness::spawn_paxos_group(net.runtime(), 3);
  // Let the group settle with one committed command.
  g[0]->submit(1);
  sim.run();
  // Submit another and crash the leader after the Phase2a messages go out
  // (run exactly to the point where acceptors stored it but the commit
  // hasn't been learned everywhere).
  g[0]->submit(2);
  sim.run_until(sim.now() + 1);  // Phase2a delivered, acks in flight
  sim.crash(g[0]->id());
  g[1]->paxos().start_election();
  sim.run();
  ASSERT_TRUE(g[1]->paxos().is_leader());
  // The new leader must have re-proposed the accepted command.
  EXPECT_EQ(g[1]->applied(), (std::vector<int>{1, 2}));
  EXPECT_EQ(g[2]->applied(), (std::vector<int>{1, 2}));
}

TEST(Paxos, CompetingCandidatesConverge) {
  sim::Simulator sim(6);
  sim::Network net(sim);
  auto g = harness::spawn_paxos_group(net.runtime(), 5);
  for (int i = 0; i < 3; ++i) g[0]->submit(i);
  sim.run();
  sim.crash(g[0]->id());
  // Two candidates race.
  g[1]->paxos().start_election();
  g[2]->paxos().start_election();
  sim.run();
  // At most one winner; chosen prefix preserved at the winner.
  int leaders = (g[1]->paxos().is_leader() ? 1 : 0) + (g[2]->paxos().is_leader() ? 1 : 0);
  ASSERT_GE(leaders, 1);
  // The higher ballot (p2's, by tie-break on process id) wins if both raced
  // at the same round; either way submissions continue safely.
  harness::PaxosHost& winner = g[2]->paxos().is_leader() ? *g[2] : *g[1];
  winner.submit(99);
  sim.run();
  for (std::size_t i = 1; i < 5; ++i) {
    ASSERT_EQ(g[i]->applied().size(), 4u) << "replica " << i;
    EXPECT_EQ(g[i]->applied().back(), 99);
    EXPECT_EQ((std::vector<int>(g[i]->applied().begin(), g[i]->applied().begin() + 3)),
              (std::vector<int>{0, 1, 2}));
  }
}

TEST(Paxos, CompetingProposersOnSameSlotConvergeOnOneValue) {
  // Two replicas both believe they may lead and propose DIFFERENT commands
  // that land on the same slot — the exact shape of a contended Paxos
  // Commit vote instance (a late prepare racing a recovery force-abort).
  // Acceptors must choose exactly one value for the slot and every replica
  // must apply the same sequence.
  sim::Simulator sim(8);
  sim::Network net(sim);
  auto g = harness::spawn_paxos_group(net.runtime(), 5);
  for (int i = 0; i < 3; ++i) g[0]->submit(i);
  sim.run();
  sim.crash(g[0]->id());

  // g[1] takes over cleanly first.
  g[1]->paxos().start_election();
  sim.run();
  ASSERT_TRUE(g[1]->paxos().is_leader());

  // g[2] starts a competing (higher-ballot) election; while its phase 1 is
  // in flight, both proposers get a submission.  Both target the same next
  // slot: g[1] proposes under its established ballot, g[2] buffers and
  // proposes once its phase 1 completes.
  g[2]->paxos().start_election();
  g[1]->submit(10);
  g[2]->submit(20);
  sim.run();

  // Probe through whoever won so stragglers get filled/committed.
  harness::PaxosHost& winner = g[2]->paxos().is_leader() ? *g[2] : *g[1];
  winner.submit(99);
  sim.run();

  // Convergence: all alive replicas applied the identical sequence, the
  // shared prefix survived, the probe landed, and no command was applied
  // twice (one value per slot).
  for (std::size_t i = 2; i < 5; ++i) {
    EXPECT_EQ(g[i]->applied(), g[1]->applied()) << "replica " << i;
  }
  const std::vector<int>& log = g[1]->applied();
  ASSERT_GE(log.size(), 4u);
  EXPECT_EQ((std::vector<int>(log.begin(), log.begin() + 3)),
            (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(log.back(), 99);
  for (int contested : {10, 20, 99}) {
    EXPECT_LE(std::count(log.begin(), log.end(), contested), 1)
        << "command " << contested << " chosen for more than one slot";
  }
}

TEST(Paxos, CaughtUpGateClosesAcrossLeaderCrash) {
  // The leader gate CSN snapshot reads rely on: caught_up() must be false
  // while an election is in progress (a fresh leader has not necessarily
  // applied its predecessors' chosen commands yet) and true again once the
  // new leader has applied everything.
  sim::Simulator sim(9);
  sim::Network net(sim);
  auto g = harness::spawn_paxos_group(net.runtime(), 3);
  for (int i = 0; i < 5; ++i) g[0]->submit(i);
  sim.run();
  EXPECT_TRUE(g[0]->paxos().caught_up());
  EXPECT_TRUE(g[1]->paxos().caught_up());  // followers apply too

  // Crash the leader with a command in flight (acceptors stored it, the
  // commit is not yet learned everywhere).
  g[0]->submit(5);
  sim.run_until(sim.now() + 1);
  sim.crash(g[0]->id());

  // The gate must already be closed on the candidate the moment it starts
  // electing — before any message flows.
  g[1]->paxos().start_election();
  EXPECT_FALSE(g[1]->paxos().is_leader());
  EXPECT_FALSE(g[1]->paxos().caught_up());

  sim.run();
  // Election done: the new leader recovered the in-flight command, applied
  // the full prefix, and may serve reads again.
  ASSERT_TRUE(g[1]->paxos().is_leader());
  EXPECT_TRUE(g[1]->paxos().caught_up());
  EXPECT_EQ(g[1]->applied(), (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(g[2]->applied(), g[1]->applied());
}

TEST(Paxos, NoDivergentLogsUnderRepeatedFailover) {
  sim::Simulator sim(7);
  sim::Network net(sim);
  auto g = harness::spawn_paxos_group(net.runtime(), 5);
  int next_value = 0;
  for (int round = 0; round < 3; ++round) {
    std::size_t leader_idx = 0;
    for (std::size_t i = 0; i < 5; ++i) {
      if (!sim.crashed(g[i]->id()) && g[i]->paxos().is_leader()) leader_idx = i;
    }
    for (int i = 0; i < 3; ++i) g[leader_idx]->submit(next_value++);
    sim.run();
    if (round < 2) {
      sim.crash(g[leader_idx]->id());
      // Next alive replica becomes candidate.
      for (std::size_t i = 0; i < 5; ++i) {
        if (!sim.crashed(g[i]->id())) {
          g[i]->paxos().start_election();
          break;
        }
      }
      sim.run();
    }
  }
  // All alive replicas agree on the full applied sequence.
  const std::vector<int>* reference = nullptr;
  for (std::size_t i = 0; i < 5; ++i) {
    if (sim.crashed(g[i]->id())) continue;
    if (reference == nullptr) {
      reference = &g[i]->applied();
    } else {
      EXPECT_EQ(g[i]->applied(), *reference) << "replica " << i;
    }
  }
  ASSERT_NE(reference, nullptr);
  EXPECT_EQ(reference->size(), 9u);
}

TEST(Paxos, OnMessageClaimsOnlyPaxosMessages) {
  // The host passes every message to its replica first and handles the
  // message itself only when on_message returns false.
  sim::Simulator sim(10);
  sim::Network net(sim);
  auto g = harness::spawn_paxos_group(net.runtime(), 3);
  PaxosReplica& follower = g[1]->paxos();
  EXPECT_FALSE(follower.on_message(100, sim::AnyMessage(harness::PaxosCmd{7})));
  EXPECT_TRUE(g[1]->applied().empty());
  EXPECT_TRUE(follower.on_message(
      100, sim::AnyMessage(CommitSlot{Ballot{1, 100}, 1, sim::AnyMessage(harness::PaxosCmd{7})})));
  EXPECT_EQ(g[1]->applied(), std::vector<int>{7});
}

}  // namespace
}  // namespace ratc::paxos
