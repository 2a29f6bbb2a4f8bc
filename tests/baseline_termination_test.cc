// Termination for the baseline 2PC stack: the decision-inference rules
// enumerated state-by-state in every TerminationMode (baseline/termination.h
// is pure, so every peer-state combination is checked exhaustively), plus
// staged cooperative-termination scenarios on a live cluster — a decision
// stranded in the coordinator's shard log, a stranded participant whose
// decision message was lost, the never-prepared abort rule, and the
// irreducible all-prepared window.  Paxos Commit's live scenarios are in
// pc_test.cc.
#include <gtest/gtest.h>

#include <optional>

#include "baseline/cluster.h"
#include "baseline/termination.h"
#include "harness/nemesis.h"

namespace ratc::baseline {
namespace {

using tcs::Decision;
using tcs::Payload;

// --- inference rules, enumerated -----------------------------------------------

using Answers = std::map<ShardId, PeerTxnState>;

/// The cooperative rules; ExhaustiveThreeParticipantEnumeration covers every
/// mode.
TerminationOutcome infer_coop(const Answers& answers, std::size_t num_participants) {
  return infer_termination(answers, num_participants, TerminationMode::kCooperative);
}

TEST(TerminationInference, AnyCommittedAnswerResolvesCommit) {
  // Rule 1: a surviving COMMIT decision is adopted, whatever else peers say
  // (a conflicting ABORT cannot coexist — that would be the 2PC safety
  // violation the checkers hunt).
  EXPECT_EQ(infer_coop({{0, PeerTxnState::kCommitted}}, 3),
            TerminationOutcome::kCommit);
  EXPECT_EQ(infer_coop({{0, PeerTxnState::kPrepared},
                        {1, PeerTxnState::kCommitted}},
                       3),
            TerminationOutcome::kCommit);
  EXPECT_EQ(infer_coop({{0, PeerTxnState::kPrepared},
                        {1, PeerTxnState::kCommitted},
                        {2, PeerTxnState::kPrepared}},
                       3),
            TerminationOutcome::kCommit);
}

TEST(TerminationInference, AnyAbortedOrNeverPreparedAnswerResolvesAbort) {
  // Rule 2: an applied ABORT, a NO vote (answered as kAborted), or a
  // never-prepared peer (which tombstoned the txn before answering) all
  // foreclose commit.
  EXPECT_EQ(infer_coop({{1, PeerTxnState::kAborted}}, 3),
            TerminationOutcome::kAbort);
  EXPECT_EQ(infer_coop({{1, PeerTxnState::kNeverPrepared}}, 3),
            TerminationOutcome::kAbort);
  EXPECT_EQ(infer_coop({{0, PeerTxnState::kPrepared},
                        {1, PeerTxnState::kPrepared},
                        {2, PeerTxnState::kNeverPrepared}},
                       3),
            TerminationOutcome::kAbort);
}

TEST(TerminationInference, AllPreparedAndCoordinatorDeadRemainsBlocked) {
  // Rule 3: every participant in doubt (prepared, voted YES, no decision)
  // is exactly the window classical 2PC cannot escape.
  EXPECT_EQ(infer_coop({{0, PeerTxnState::kPrepared},
                        {1, PeerTxnState::kPrepared},
                        {2, PeerTxnState::kPrepared}},
                       3),
            TerminationOutcome::kBlocked);
  // Degenerate single-participant case: the lone shard is in doubt.
  EXPECT_EQ(infer_coop({{0, PeerTxnState::kPrepared}}, 1),
            TerminationOutcome::kBlocked);
}

TEST(TerminationInference, OutstandingAnswersStayUnknown) {
  EXPECT_EQ(infer_coop({}, 3), TerminationOutcome::kUnknown);
  EXPECT_EQ(infer_coop({{0, PeerTxnState::kPrepared}}, 3),
            TerminationOutcome::kUnknown);
  EXPECT_EQ(infer_coop({{0, PeerTxnState::kPrepared},
                        {2, PeerTxnState::kPrepared}},
                       3),
            TerminationOutcome::kUnknown);
}

TEST(TerminationInference, ExhaustiveThreeParticipantEnumeration) {
  // One table over every mode: each of three participants has either not
  // answered yet or answered one of the four states, checked against the
  // rule priority commit > abort > all answered > unknown.  The modes differ
  // in one row only — every participant answered kPrepared — which stays
  // kBlocked under classical and cooperative termination but resolves to
  // COMMIT under Paxos Commit, whose YES votes are chosen Paxos values (the
  // non-blocking rule 2PC lacks).
  const std::optional<PeerTxnState> kAnswers[] = {
      std::nullopt, PeerTxnState::kNeverPrepared, PeerTxnState::kPrepared,
      PeerTxnState::kCommitted, PeerTxnState::kAborted};
  for (TerminationMode mode : {TerminationMode::kClassical, TerminationMode::kCooperative,
                               TerminationMode::kPaxosCommit}) {
    for (const auto& a : kAnswers) {
      for (const auto& b : kAnswers) {
        for (const auto& c : kAnswers) {
          Answers answers;
          bool committed = false, foreclosed = false;
          ShardId shard = 0;
          for (const auto& answer : {a, b, c}) {
            if (answer.has_value()) {
              answers[shard] = *answer;
              committed |= *answer == PeerTxnState::kCommitted;
              foreclosed |= *answer == PeerTxnState::kAborted ||
                            *answer == PeerTxnState::kNeverPrepared;
            }
            ++shard;
          }
          TerminationOutcome expected = TerminationOutcome::kUnknown;
          if (committed) {
            expected = TerminationOutcome::kCommit;
          } else if (foreclosed) {
            expected = TerminationOutcome::kAbort;
          } else if (answers.size() == 3) {
            expected = mode == TerminationMode::kPaxosCommit ? TerminationOutcome::kCommit
                                                             : TerminationOutcome::kBlocked;
          }
          auto name = [](const std::optional<PeerTxnState>& x) {
            return x.has_value() ? to_string(*x) : "-";
          };
          EXPECT_EQ(infer_termination(answers, 3, mode), expected)
              << to_string(mode) << ": " << name(a) << "/" << name(b) << "/" << name(c);
        }
      }
    }
    EXPECT_EQ(infer_termination({}, 0, mode), TerminationOutcome::kUnknown)
        << to_string(mode);
  }
  // The row that tells the modes apart, spelled out.
  const Answers all_prepared{{0, PeerTxnState::kPrepared}, {1, PeerTxnState::kPrepared}};
  EXPECT_EQ(infer_termination(all_prepared, 2, TerminationMode::kCooperative),
            TerminationOutcome::kBlocked);
  EXPECT_EQ(infer_termination(all_prepared, 2, TerminationMode::kPaxosCommit),
            TerminationOutcome::kCommit);
}

// --- staged protocol scenarios ---------------------------------------------------

Payload make_payload(std::vector<ObjectId> reads, std::vector<ObjectId> writes,
                     Version read_version, Version commit_version) {
  Payload p;
  for (ObjectId o : reads) p.reads.push_back({o, read_version});
  for (ObjectId o : writes) p.writes.push_back({o, static_cast<Value>(o)});
  p.commit_version = commit_version;
  return p;
}

BaselineCluster::Options coop_options(std::uint64_t seed, bool coop) {
  return {.seed = seed,
          .num_shards = 2,
          .shard_size = 3,
          .termination = coop ? TerminationMode::kCooperative : TerminationMode::kClassical};
}

TEST(TerminationProtocol, RecoversDecisionStrandedInCoordinatorShardLog) {
  // Crash the coordinator one tick after the last participant prepared: the
  // decision command is in flight inside the coordinator's own Paxos group
  // and survives via election re-proposal, but the crashed coordinator
  // never propagates it.  Cooperative termination adopts the surviving
  // COMMIT; classical 2PC strands the peer shard and the client forever.
  for (bool coop : {false, true}) {
    BaselineCluster cluster(coop_options(1, coop));
    commit::Client& client = cluster.add_client();
    TxnId t = cluster.next_txn_id();
    Payload p = make_payload({0, 1}, {0, 1}, 0, 1);
    ProcessId coordinator = cluster.coordinator_for(p);
    client.certify_remote(coordinator, t, p);
    ASSERT_TRUE(cluster.sim().run_until_pred(
        [&] { return cluster.server(1, 0).has_prepared(t); }));
    cluster.sim().run_until(cluster.sim().now() + 1);
    cluster.crash_server(coordinator);
    cluster.elect_leader(0, cluster.shard_servers(0)[1]);
    cluster.sim().run();

    // The decision survived inside shard 0 either way (guard assertion: the
    // staging hit the intended window).
    ASSERT_TRUE(cluster.server(0, 1).has_decided(t));
    EXPECT_EQ(cluster.verify(), "");
    TerminationStats stats = cluster.termination_stats();
    if (coop) {
      EXPECT_EQ(client.decision(t), Decision::kCommit);
      EXPECT_TRUE(cluster.server(1, 0).has_decided(t));
      EXPECT_EQ(cluster.server(1, 0).decision_of(t), Decision::kCommit);
      // Recovered either by the successor leader adopting the orphaned
      // coordination outright, or by a peer's termination query — whichever
      // the failure detector's timing reached first.
      EXPECT_GE(stats.resolved_commits + stats.adopted_coordinations, 1u);
      EXPECT_EQ(stats.resolved_aborts, 0u);
    } else {
      EXPECT_FALSE(client.decided(t));  // classical 2PC blocks
      EXPECT_FALSE(cluster.server(1, 0).has_decided(t));
      EXPECT_EQ(stats.resolved(), 0u);
    }
  }
}

TEST(TerminationProtocol, StrandedParticipantResolvesViaInDoubtTimeout) {
  // The coordinator survives, but its decision message to the peer shard is
  // eaten by a lossy one-way partition and the baseline never retransmits.
  // The stranded participant's in-doubt timer queries the peers and adopts
  // the committed outcome; without termination the prepared witness poisons
  // the object forever.
  for (bool coop : {false, true}) {
    BaselineCluster cluster(coop_options(2, coop));
    commit::Client& client = cluster.add_client();
    harness::Nemesis nemesis(cluster.sim(), 7);
    cluster.net().set_fault_injector(&nemesis);
    TxnId t = cluster.next_txn_id();
    Payload p = make_payload({0, 1}, {0, 1}, 0, 1);
    client.certify_remote(cluster.coordinator_for(p), t, p);
    ASSERT_TRUE(cluster.sim().run_until_pred(
        [&] { return cluster.server(1, 0).has_prepared(t); }));
    nemesis.isolate_one_way({cluster.leader_server(1)}, 40, /*inbound_blocked=*/true,
                            /*lossy=*/true);
    cluster.sim().run();
    // Let the partition window expire before probing with T2.
    cluster.sim().run_until(cluster.sim().now() + 60);

    // The coordinator decided and told the client in both modes (guard).
    ASSERT_EQ(client.decision(t), Decision::kCommit);
    EXPECT_EQ(cluster.server(1, 0).has_decided(t), coop);

    // T2 conflicts with T1's write on shard 1.  Classical: T1's prepared
    // witness is still live there — poisoned, T2 aborts.  Coop: the shard
    // adopted the commit, so T2 reads the new version and commits.
    TxnId t2 = cluster.next_txn_id();
    Payload p2 = make_payload({1}, {1}, coop ? 1 : 0, 2);
    client.certify_remote(cluster.coordinator_for(p2), t2, p2);
    cluster.sim().run();
    ASSERT_TRUE(client.decided(t2));
    EXPECT_EQ(client.decision(t2), coop ? Decision::kCommit : Decision::kAbort);
    // Coop: the stranded participant also answers the client once it
    // resolves.  The history records that repeated decision (it is what
    // verify()'s conflicting-decisions check reads), and the two agree.
    std::size_t decides_of_t = 0;
    for (const auto& ev : cluster.history().events()) {
      if (ev.kind == tcs::HistoryEvent::Kind::kDecide && ev.txn == t) ++decides_of_t;
    }
    EXPECT_EQ(decides_of_t, coop ? 2u : 1u);
    EXPECT_TRUE(cluster.history().conflicting_decisions().empty());
    EXPECT_EQ(cluster.verify(), "");
  }
}

TEST(TerminationProtocol, NeverPreparedPeerForeclosesAbortAndReleasesObjects) {
  // The prepare for shard 1 dies in a lossy partition, then the coordinator
  // crashes: shard 0 holds an in-doubt prepared record, shard 1 has never
  // heard of the transaction.  The termination query makes shard 1 durably
  // tombstone it (kNeverPrepared), the querier resolves ABORT, and the
  // poisoned object on shard 0 is released for later transactions.
  for (bool coop : {false, true}) {
    BaselineCluster cluster(coop_options(3, coop));
    commit::Client& client = cluster.add_client();
    harness::Nemesis nemesis(cluster.sim(), 9);
    cluster.net().set_fault_injector(&nemesis);
    TxnId t = cluster.next_txn_id();
    Payload p = make_payload({0, 1}, {0, 1}, 0, 1);
    ProcessId coordinator = cluster.coordinator_for(p);
    nemesis.isolate({cluster.leader_server(1)}, 30, /*lossy=*/true);
    client.certify_remote(coordinator, t, p);
    ASSERT_TRUE(cluster.sim().run_until_pred(
        [&] { return cluster.server(0, 1).has_prepared(t); }));
    cluster.sim().run_until(cluster.sim().now() + 1);
    cluster.crash_server(coordinator);
    cluster.elect_leader(0, cluster.shard_servers(0)[1]);
    cluster.sim().run();

    ASSERT_FALSE(cluster.server(1, 0).has_prepared(t));  // guard: prepare lost
    TerminationStats stats = cluster.termination_stats();
    if (coop) {
      EXPECT_EQ(client.decision(t), Decision::kAbort);
      EXPECT_TRUE(cluster.server(1, 0).has_decided(t));  // tombstoned
      EXPECT_GE(stats.tombstones, 1u);
      EXPECT_GE(stats.resolved_aborts, 1u);
      EXPECT_EQ(stats.resolved_commits, 0u);
    } else {
      EXPECT_FALSE(client.decided(t));
      EXPECT_EQ(stats.resolved(), 0u);
    }

    // T2 touches T1's object on shard 0: poisoned iff T1 stays prepared.
    TxnId t2 = cluster.next_txn_id();
    Payload p2 = make_payload({0}, {0}, 0, 2);
    client.certify_remote(cluster.coordinator_for(p2), t2, p2);
    cluster.sim().run();
    ASSERT_TRUE(client.decided(t2));
    EXPECT_EQ(client.decision(t2), coop ? Decision::kCommit : Decision::kAbort);
    EXPECT_EQ(cluster.verify(), "");
  }
}

TEST(TerminationProtocol, AllPreparedWindowRemainsBlockedButSafe) {
  // Crash the coordinator at the exact beat the last participant prepared:
  // every vote was YES, no decision exists anywhere, and only the dead
  // coordinator could have known the outcome.  Cooperative termination must
  // NOT invent a decision — the transaction stays blocked (the irreducible
  // 2PC window) and the give-up counter records it.
  BaselineCluster cluster(coop_options(4, /*coop=*/true));
  commit::Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  Payload p = make_payload({0, 1}, {0, 1}, 0, 1);
  ProcessId coordinator = cluster.coordinator_for(p);
  client.certify_remote(coordinator, t, p);
  ASSERT_TRUE(cluster.sim().run_until_pred(
      [&] { return cluster.server(1, 0).has_prepared(t); }));
  cluster.crash_server(coordinator);
  cluster.elect_leader(0, cluster.shard_servers(0)[1]);
  cluster.sim().run();  // termination rounds run and give up; queue drains

  EXPECT_FALSE(client.decided(t));
  EXPECT_FALSE(cluster.server(1, 0).has_decided(t));
  TerminationStats stats = cluster.termination_stats();
  EXPECT_GE(stats.queries_sent, 1u);
  EXPECT_GE(stats.blocked, 1u);
  EXPECT_EQ(stats.resolved(), 0u);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(TerminationProtocol, ToggleOffKeepsStatsZeroAndFailureFreeRunsIdentical) {
  // Failure-free runs decide every transaction identically with and without
  // the toggle, and the classical cluster reports all-zero metrics.
  for (bool coop : {false, true}) {
    BaselineCluster cluster(coop_options(5, coop));
    commit::Client& client = cluster.add_client();
    std::vector<TxnId> txns;
    for (int i = 0; i < 20; ++i) {
      TxnId t = cluster.next_txn_id();
      txns.push_back(t);
      ObjectId a = static_cast<ObjectId>(2 * i);
      ObjectId b = static_cast<ObjectId>(2 * i + 1);
      Payload p = make_payload({a, b}, {a}, 0, 1);
      client.certify_remote(cluster.coordinator_for(p), t, p);
    }
    cluster.sim().run();
    for (TxnId t : txns) EXPECT_EQ(client.decision(t), Decision::kCommit);
    TerminationStats stats = cluster.termination_stats();
    EXPECT_EQ(stats.resolved(), 0u);
    EXPECT_EQ(stats.blocked, 0u);
    if (!coop) {
      EXPECT_EQ(stats.queries_sent, 0u);
      EXPECT_EQ(stats.answers_sent, 0u);
    }
    EXPECT_EQ(cluster.verify(), "");
  }
}

}  // namespace
}  // namespace ratc::baseline
