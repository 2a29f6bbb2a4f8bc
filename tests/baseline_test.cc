// Baseline 2PC-over-Paxos TCS: correctness and the 7-message-delay latency
// the paper's introduction cites for the vanilla scheme.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "baseline/cluster.h"
#include "checker/linearization.h"
#include "common/random.h"

namespace ratc::baseline {
namespace {

using tcs::Decision;
using tcs::Payload;

Payload make_payload(std::vector<ObjectId> reads, std::vector<ObjectId> writes,
                     Version read_version, Version commit_version) {
  Payload p;
  for (ObjectId o : reads) p.reads.push_back({o, read_version});
  for (ObjectId o : writes) p.writes.push_back({o, static_cast<Value>(o)});
  p.commit_version = commit_version;
  return p;
}

TEST(Baseline, SingleShardCommit) {
  BaselineCluster cluster({.seed = 1, .num_shards = 1, .shard_size = 3});
  commit::Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  Payload p = make_payload({0}, {0}, 0, 1);
  client.certify_remote(cluster.coordinator_for(p), t, p);
  cluster.sim().run();
  EXPECT_EQ(client.decision(t), Decision::kCommit);
}

TEST(Baseline, CrossShardCommitWithAllReplicasApplying) {
  BaselineCluster cluster({.seed = 2, .num_shards = 2, .shard_size = 3});
  commit::Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  Payload p = make_payload({0, 1}, {0, 1}, 0, 1);
  client.certify_remote(cluster.coordinator_for(p), t, p);
  cluster.sim().run();
  ASSERT_EQ(client.decision(t), Decision::kCommit);
  // Every replica of both shards applied the decision (state machine).
  for (ShardId s = 0; s < 2; ++s) {
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(cluster.server(s, i).has_decided(t)) << "s" << s << " idx " << i;
      EXPECT_EQ(cluster.server(s, i).decision_of(t), Decision::kCommit);
    }
  }
}

TEST(Baseline, ConflictAborts) {
  BaselineCluster cluster({.seed = 3, .num_shards = 1, .shard_size = 3});
  commit::Client& client = cluster.add_client();
  TxnId t1 = cluster.next_txn_id(), t2 = cluster.next_txn_id();
  Payload p1 = make_payload({0}, {0}, 0, 1);
  Payload p2 = make_payload({0}, {0}, 0, 1);
  client.certify_remote(cluster.coordinator_for(p1), t1, p1);
  client.certify_remote(cluster.coordinator_for(p2), t2, p2);
  cluster.sim().run();
  int commits = (client.decision(t1) == Decision::kCommit ? 1 : 0) +
                (client.decision(t2) == Decision::kCommit ? 1 : 0);
  EXPECT_EQ(commits, 1);
  auto lin = checker::check_linearization(cluster.history(), cluster.certifier());
  EXPECT_TRUE(lin.ok) << lin.error;
}

TEST(Baseline, CrossShardLatencyIsSevenDelaysPlusSubmission) {
  // Paper Sec. 1/3: the vanilla scheme takes 7 message delays to learn a
  // decision (from the coordinator; +1 for the client's submission hop).
  BaselineCluster cluster({.seed = 4, .num_shards = 2, .shard_size = 3});
  commit::Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  Payload p = make_payload({0, 1}, {0}, 0, 1);
  client.certify_remote(cluster.coordinator_for(p), t, p);
  cluster.sim().run();
  ASSERT_TRUE(client.decided(t));
  EXPECT_EQ(client.latency(t), 8u);  // 1 submit + 7 protocol
}

TEST(Baseline, SingleShardFastPathStillNeedsDurableDecision) {
  // Even single-shard transactions pay two Paxos round trips (prepare +
  // decision) before the reply: 4 delays + reply, +1 submit.
  BaselineCluster cluster({.seed = 5, .num_shards = 1, .shard_size = 3});
  commit::Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  Payload p = make_payload({0}, {0}, 0, 1);
  client.certify_remote(cluster.coordinator_for(p), t, p);
  cluster.sim().run();
  ASSERT_TRUE(client.decided(t));
  EXPECT_EQ(client.latency(t), 6u);  // submit + 2x(phase2a+phase2b) + reply
}

TEST(Baseline, PaxosLeaderCarriesReplicationLoad) {
  // Unlike the paper's protocol (coordinator ships ACCEPTs), the baseline
  // leader relays every replication round: 2 Phase2a fan-outs per
  // transaction it hosts.
  BaselineCluster cluster({.seed = 6, .num_shards = 1, .shard_size = 3});
  commit::Client& client = cluster.add_client();
  const int kTxns = 20;
  for (int i = 0; i < kTxns; ++i) {
    TxnId t = cluster.next_txn_id();
    Payload p = make_payload({static_cast<ObjectId>(i)}, {static_cast<ObjectId>(i)},
                             0, 1);
    client.certify_remote(cluster.coordinator_for(p), t, p);
  }
  cluster.sim().run();
  // The shard's Paxos leader sent 2 commands * 2 followers Phase2a messages
  // per transaction.
  const auto& t = cluster.net().traffic(cluster.server(0, 0).id());
  EXPECT_GE(t.sent_by_type().at("PAXOS_2A"), 2u * 2u * kTxns);
}

TEST(Baseline, EveryTracedPidIsAServerOrAClient) {
  // Each server hosts its shard's Paxos member, so the wire carries server
  // and client pids only, and one crash(pid) takes a whole member down: the
  // election after it runs among the surviving servers' pids.
  BaselineCluster cluster(
      {.seed = 11, .num_shards = 2, .shard_size = 3, .enable_tracer = true});
  commit::Client& client = cluster.add_client();
  auto commit_across_shards = [&](ObjectId a, ObjectId b) {
    TxnId t = cluster.next_txn_id();
    Payload p = make_payload({a, b}, {a, b}, 0, 1);
    client.certify_remote(cluster.coordinator_for(p), t, p);
    cluster.sim().run();
    return client.decision(t);
  };
  ASSERT_EQ(commit_across_shards(0, 1), Decision::kCommit);

  cluster.crash(cluster.leader_server(0));
  cluster.elect_leader(0, cluster.shard_servers(0)[1]);
  ASSERT_EQ(commit_across_shards(2, 3), Decision::kCommit);
  ASSERT_TRUE(cluster.tracer().delivered("PAXOS_1B"));

  std::set<ProcessId> known = {client.id()};
  for (ShardId s = 0; s < cluster.num_shards(); ++s) {
    for (ProcessId pid : cluster.shard_servers(s)) known.insert(pid);
  }
  for (const sim::TraceEntry& e : cluster.tracer().entries()) {
    EXPECT_EQ(known.count(e.from), 1u) << "t=" << e.time << " " << e.type << " from p"
                                       << e.from;
    EXPECT_EQ(known.count(e.to), 1u) << "t=" << e.time << " " << e.type << " to p" << e.to;
  }
}

TEST(Baseline, ManyTransactionsAcrossShards) {
  BaselineCluster cluster({.seed = 7, .num_shards = 3, .shard_size = 3});
  commit::Client& client = cluster.add_client();
  std::vector<TxnId> txns;
  for (int i = 0; i < 60; ++i) {
    TxnId t = cluster.next_txn_id();
    txns.push_back(t);
    ObjectId a = static_cast<ObjectId>(3 * i);
    ObjectId b = static_cast<ObjectId>(3 * i + 1);
    Payload p = make_payload({a, b}, {a}, 0, 1);
    client.certify_remote(cluster.coordinator_for(p), t, p);
  }
  cluster.sim().run();
  for (TxnId t : txns) EXPECT_EQ(client.decision(t), Decision::kCommit);
  auto lin = checker::check_linearization(cluster.history(), cluster.certifier());
  EXPECT_TRUE(lin.ok) << lin.error;
}

TEST(Baseline, SurvivesMinorityFailureViaElection) {
  BaselineCluster cluster({.seed = 8, .num_shards = 2, .shard_size = 3});
  commit::Client& client = cluster.add_client();
  TxnId t1 = cluster.next_txn_id();
  Payload p1 = make_payload({0, 1}, {0}, 0, 1);
  client.certify_remote(cluster.coordinator_for(p1), t1, p1);
  cluster.sim().run();
  ASSERT_EQ(client.decision(t1), Decision::kCommit);

  // Crash shard 0's leader; replica 1 takes over (2f+1 = 3, f = 1).
  cluster.fail_over(0, 1);
  cluster.sim().run();

  TxnId t2 = cluster.next_txn_id();
  Payload p2 = make_payload({2, 3}, {2}, 0, 1);
  client.certify_remote(cluster.coordinator_for(p2), t2, p2);
  cluster.sim().run();
  EXPECT_EQ(client.decision(t2), Decision::kCommit);
  // The new leader's state machine retains t1's commit.
  EXPECT_TRUE(cluster.server(0, 1).has_decided(t1));
}

TEST(Baseline, SnapshotIsolationVariant) {
  BaselineCluster cluster(
      {.seed = 9, .num_shards = 1, .shard_size = 3, .isolation = "snapshot-isolation"});
  commit::Client& client = cluster.add_client();
  TxnId t1 = cluster.next_txn_id(), t2 = cluster.next_txn_id();
  // Write skew commits under SI.
  Payload p1 = make_payload({0, 2}, {0}, 0, 1);
  Payload p2 = make_payload({0, 2}, {2}, 0, 1);
  client.certify_remote(cluster.coordinator_for(p1), t1, p1);
  client.certify_remote(cluster.coordinator_for(p2), t2, p2);
  cluster.sim().run();
  EXPECT_EQ(client.decision(t1), Decision::kCommit);
  EXPECT_EQ(client.decision(t2), Decision::kCommit);
}

// --- the apply-time vote ----------------------------------------------------------
//
// One shard server fed replicated commands directly, the way its Paxos
// replica applies them.  It follows in a group whose leader is never built,
// so no vote or termination answer leaves it.

/// Counts the pairwise checks made through it.
class CountingCertifier final : public tcs::Certifier {
 public:
  explicit CountingCertifier(const tcs::Certifier& inner) : inner_(inner) {}
  Decision against_committed(const Payload& committed, const Payload& l) const override {
    ++checks;
    return inner_.against_committed(committed, l);
  }
  Decision against_prepared(const Payload& prepared, const Payload& l) const override {
    ++checks;
    return inner_.against_prepared(prepared, l);
  }
  const char* name() const override { return inner_.name(); }

  mutable std::size_t checks = 0;

 private:
  const tcs::Certifier& inner_;
};

class LoneServer {
 public:
  static constexpr ProcessId kPid = 1;
  static constexpr ProcessId kAbsentLeader = 2;

  explicit LoneServer(const tcs::Certifier& certifier, bool check_certifier_index = false)
      : net_(sim_), server_(net_.runtime(), kPid, options(certifier, check_certifier_index)) {
    sim_.add_process(&server_);
  }

  ShardServer& server() { return server_; }

  void apply(sim::AnyMessage cmd) { server_.apply(++slot_, cmd); }
  void prepare(TxnId t, const Payload& p) { apply(sim::AnyMessage(prepare_cmd(t, p))); }
  void prepare_batch(const std::vector<std::pair<TxnId, Payload>>& items) {
    CmdPrepareBatch batch;
    for (const auto& [t, p] : items) batch.items.push_back(prepare_cmd(t, p));
    apply(sim::AnyMessage(std::move(batch)));
  }
  void decide(TxnId t, Decision d) { apply(sim::AnyMessage(CmdDecide{t, d})); }
  void resolve_abort(TxnId t) { apply(sim::AnyMessage(CmdResolveAbort{t, kAbsentLeader})); }

 private:
  ShardServer::Options options(const tcs::Certifier& certifier, bool check) {
    ShardServer::Options o;
    o.shard = 0;
    o.shard_map = &map_;
    o.certifier = &certifier;
    o.paxos.group = {kPid, kAbsentLeader};
    o.paxos.initial_leader = kAbsentLeader;
    o.check_certifier_index = check;
    return o;
  }
  static CmdPrepare prepare_cmd(TxnId t, const Payload& p) {
    CmdPrepare c;
    c.txn = t;
    c.payload = p;
    c.participants = {0};
    c.coordinator = kAbsentLeader;
    c.prepare_ts = static_cast<Time>(t);
    return c;
  }

  sim::Simulator sim_;
  sim::Network net_;
  tcs::ShardMap map_{1};
  ShardServer server_;
  Slot slot_ = 0;
};

/// The replicated TCS state of one shard as the baseline defines it, with
/// the vote as the flat fold over the applied prefix: the specification the
/// server's indexed vote must meet.
class FlatModel {
 public:
  explicit FlatModel(const tcs::Certifier& certifier) : certifier_(certifier) {}

  struct Txn {
    Payload payload;
    bool prepared = false, decided = false;
    Decision vote = Decision::kAbort, decision = Decision::kAbort;
  };

  const std::map<TxnId, Txn>& txns() const { return txns_; }

  void prepare(TxnId t, const Payload& p) {
    auto [it, inserted] = txns_.try_emplace(t);
    Txn& x = it->second;
    if (!inserted && x.prepared) return;  // a duplicate keeps the first vote
    x.payload = p;
    x.prepared = true;
    if (x.decided) {
      x.vote = Decision::kAbort;  // a tombstone got there first
      return;
    }
    std::vector<const Payload*> committed, prepared;
    for (const auto& [u, y] : txns_) {
      if (y.decided && y.decision == Decision::kCommit) committed.push_back(&y.payload);
      if (u != t && y.prepared && !y.decided && y.vote == Decision::kCommit) {
        prepared.push_back(&y.payload);
      }
    }
    x.vote = certifier_.vote(committed, prepared, p);
  }
  void decide(TxnId t, Decision d) {
    auto it = txns_.find(t);
    if (it == txns_.end()) {
      if (d == Decision::kAbort) txns_[t] = Txn{.decided = true};
      return;  // an unknown commit is ignored
    }
    if (it->second.decided) return;
    it->second.decided = true;
    it->second.decision = d;
  }
  void resolve_abort(TxnId t) {
    Txn& x = txns_[t];
    if (!x.prepared && !x.decided) x.decided = true;
  }

 private:
  const tcs::Certifier& certifier_;
  std::map<TxnId, Txn> txns_;
};

/// Random command sequences over a small object universe, applied to the
/// server (its flat-fold cross-check on, so a divergence aborts) and to the
/// model: after every command the server's votes and decisions match the
/// model's.  The mix covers duplicate prepares, batched prepares, re-sent
/// decides, tombstones (CmdResolveAbort, or an abort decide for an unknown
/// transaction) that land before the prepare, and an ignored commit decide
/// for an unknown transaction.
void expect_votes_match_flat_fold(const std::string& isolation) {
  auto certifier = tcs::make_certifier(isolation);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    LoneServer lone(*certifier, /*check_certifier_index=*/true);
    FlatModel model(*certifier);
    std::map<ObjectId, Version> latest;  // highest committed version per object
    std::vector<TxnId> unprepared;       // named by a tombstone or decide first
    TxnId next = 1;
    auto payload = [&] {
      Payload p;
      Version maxv = 0;
      for (std::uint64_t n = 1 + rng.below(3); n > 0; --n) {
        ObjectId obj = rng.below(8);
        if (p.reads_object(obj)) continue;
        // Mostly the latest committed version, sometimes a stale one.
        Version v = latest[obj];
        if (v > 0 && rng.chance(0.3)) v = rng.below(v);
        p.reads.push_back({obj, v});
        maxv = std::max(maxv, v);
      }
      for (const auto& r : p.reads) {
        if (rng.chance(0.6)) p.writes.push_back({r.object, static_cast<Value>(rng.below(100))});
      }
      p.commit_version = maxv + 1;
      return p;
    };
    auto fresh_txn = [&] {
      if (!unprepared.empty() && rng.chance(0.3)) {
        std::size_t i = rng.below(unprepared.size());
        TxnId t = unprepared[i];
        unprepared.erase(unprepared.begin() + static_cast<std::ptrdiff_t>(i));
        return t;
      }
      return next++;
    };
    auto known_txn = [&] {
      auto it = model.txns().begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.below(model.txns().size())));
      return it->first;
    };
    for (int step = 0; step < 400; ++step) {
      std::uint64_t action = rng.below(100);
      if (model.txns().empty() || action < 40) {
        TxnId t = fresh_txn();
        Payload p = payload();
        model.prepare(t, p);
        lone.prepare(t, p);
      } else if (action < 45) {
        std::vector<std::pair<TxnId, Payload>> items;
        for (std::uint64_t n = 2 + rng.below(2); n > 0; --n) {
          items.emplace_back(fresh_txn(), payload());
          model.prepare(items.back().first, items.back().second);
        }
        lone.prepare_batch(items);
      } else if (action < 52) {
        TxnId t = known_txn();  // a duplicate prepare, or one after a tombstone
        Payload p = payload();
        model.prepare(t, p);
        lone.prepare(t, p);
      } else if (action < 82) {
        TxnId t = known_txn();  // a decide, or a re-sent one
        const FlatModel::Txn& x = model.txns().at(t);
        Decision d = Decision::kAbort;
        if (x.decided) {
          d = x.decision;
        } else if (x.vote == Decision::kCommit && rng.chance(0.7)) {
          d = Decision::kCommit;
        }
        if (d == Decision::kCommit) {
          for (const auto& w : x.payload.writes) {
            latest[w.object] = std::max(latest[w.object], x.payload.commit_version);
          }
        }
        model.decide(t, d);
        lone.decide(t, d);
      } else if (action < 88) {
        TxnId t = next++;  // a decide for an unknown transaction
        unprepared.push_back(t);
        Decision d = rng.chance(0.5) ? Decision::kCommit : Decision::kAbort;
        model.decide(t, d);
        lone.decide(t, d);
      } else {
        const bool unknown = rng.chance(0.5);
        TxnId t = unknown ? next++ : known_txn();
        if (unknown) unprepared.push_back(t);
        model.resolve_abort(t);
        lone.resolve_abort(t);
      }
      for (const auto& [t, x] : model.txns()) {
        const ShardServer& sv = lone.server();
        ASSERT_EQ(sv.has_prepared(t), x.prepared) << isolation << " seed " << seed << " txn" << t;
        ASSERT_EQ(sv.has_decided(t), x.decided) << isolation << " seed " << seed << " txn" << t;
        if (x.prepared) {
          ASSERT_EQ(sv.vote_of(t), x.vote) << isolation << " seed " << seed << " txn" << t;
        }
        if (x.decided) {
          ASSERT_EQ(sv.decision_of(t), x.decision)
              << isolation << " seed " << seed << " txn" << t;
        }
      }
    }
  }
}

TEST(BaselineVote, SerializabilityMatchesFlatFold) {
  expect_votes_match_flat_fold("serializability");
}

TEST(BaselineVote, SnapshotIsolationMatchesFlatFold) {
  expect_votes_match_flat_fold("snapshot-isolation");
}

TEST(BaselineVote, PairwiseChecksPerPrepareStayFlatAsHistoryGrows) {
  // Transactions over disjoint objects, four in flight at a time: no earlier
  // payload shares an object with the next one, so an object-indexed vote
  // makes the same number of pairwise checks at 100 applied transactions as
  // at 1,000.  A fold over the applied history makes one per transaction.
  tcs::SerializabilityCertifier serializability;
  CountingCertifier certifier(serializability);
  LoneServer lone(certifier);
  constexpr TxnId kInFlight = 4;
  std::map<TxnId, std::size_t> checks_at;
  for (TxnId t = 1; t <= 1000; ++t) {
    const auto a = static_cast<ObjectId>(2 * t);
    certifier.checks = 0;
    lone.prepare(t, make_payload({a, a + 1}, {a}, 0, 1));
    if (t == 100 || t == 1000) checks_at[t] = certifier.checks;
    ASSERT_EQ(lone.server().vote_of(t), Decision::kCommit) << "txn" << t;
    if (t > kInFlight) lone.decide(t - kInFlight, Decision::kCommit);
  }
  EXPECT_EQ(checks_at[1000], checks_at[100]);

  // The counter does count: a stale read of txn 1's write meets its commit.
  certifier.checks = 0;
  lone.prepare(1001, make_payload({2}, {2}, 0, 1));
  EXPECT_GE(certifier.checks, 1u);
  EXPECT_EQ(lone.server().vote_of(1001), Decision::kAbort);
}

}  // namespace
}  // namespace ratc::baseline
