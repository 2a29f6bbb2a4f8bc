// Read-only snapshot transactions on the CSN log.
//
// Four layers pin the snapshot-read PR:
//   1. SnapshotStore: visibility is gated on csn alone, never apply order —
//      the regression for the out-of-order VersionedStore::apply hole —
//      plus idempotence, truncation honesty, and never-written semantics.
//   2. Csn/watermark algebra: the total order and the two watermark
//      constructors the replicas derive their read horizon from.
//   3. checker::check_snapshot_reads on crafted histories: accepts a
//      consistent read, rejects future observations, missed mandatory
//      writers, version/csn order inversions, and staleness violations.
//   4. Cluster smoke on all three stacks: a served read observes the
//      committed state at one consistent snapshot with ZERO messages on the
//      wire (asserted against the tracer), followers serve on the
//      reconfigurable stacks, and the baseline's leader gate refuses when
//      the designated leader is gone.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "baseline/cluster.h"
#include "checker/snapshot.h"
#include "commit/cluster.h"
#include "rdma/cluster.h"
#include "store/versioned_store.h"
#include "tcs/csn.h"
#include "tcs/history.h"

namespace ratc {
namespace {

using tcs::Csn;
using tcs::Decision;
using tcs::Payload;

Payload write_payload(ObjectId o, Version read_v, Value value) {
  Payload p;
  p.reads = {{o, read_v}};
  p.writes = {{o, value}};
  p.commit_version = read_v + 1;
  return p;
}

// --- 1. SnapshotStore -------------------------------------------------------

TEST(SnapshotStore, OutOfOrderApplyNeverExposesNonPrefixState) {
  // The decide for csn <30> lands BEFORE the decide for csn <10> (a lagging
  // replica learning decisions out of log order).  Reads interleaved with
  // the applies must always see the csn-prefix of their snapshot, never the
  // apply-order prefix.
  store::SnapshotStore st(8);
  st.apply_at(write_payload(0, 2, 33), Csn{30, 3});

  // Snapshot 20: the csn-30 write is in the future; with nothing below, the
  // object reads as absent — NOT as version 3.
  auto v = st.read_at(0, Csn{20, tcs::kMaxTxnId});
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->version, 0u);

  // The earlier write arrives late; the same snapshot now resolves to it.
  st.apply_at(write_payload(0, 0, 11), Csn{10, 1});
  v = st.read_at(0, Csn{20, tcs::kMaxTxnId});
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->version, 1u);
  EXPECT_EQ(v->value, 11);

  // And a snapshot covering both sees the csn-latest version.
  v = st.read_at(0, Csn{40, tcs::kMaxTxnId});
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->version, 3u);
  EXPECT_EQ(v->value, 33);
}

TEST(SnapshotStore, ApplyIsIdempotent) {
  store::SnapshotStore st(8);
  Payload p = write_payload(5, 0, 42);
  st.apply_at(p, Csn{7, 9});
  st.apply_at(p, Csn{7, 9});  // duplicate decision replay
  auto v = st.read_at(5, tcs::watermark_at(100));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->version, 1u);
  st.apply_at(write_payload(5, 1, 43), Csn{8, 10});
  v = st.read_at(5, tcs::watermark_at(100));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->version, 2u);
}

TEST(SnapshotStore, TruncationIsHonest) {
  // Depth 2: after three writes the oldest is evicted.  A snapshot below
  // the retained range must answer "unknowable" (nullopt), never a wrong
  // version or a fake absence.
  store::SnapshotStore st(2);
  st.apply_at(write_payload(0, 0, 1), Csn{10, 1});
  st.apply_at(write_payload(0, 1, 2), Csn{20, 2});
  st.apply_at(write_payload(0, 2, 3), Csn{30, 3});
  EXPECT_FALSE(st.read_at(0, Csn{5, tcs::kMaxTxnId}).has_value());
  auto v = st.read_at(0, Csn{25, tcs::kMaxTxnId});
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->version, 2u);
}

TEST(SnapshotStore, NeverWrittenObjectReadsAsAbsent) {
  store::SnapshotStore st;
  auto v = st.read_at(99, tcs::watermark_at(1000));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->version, 0u);
  EXPECT_EQ(v->value, 0);
}

// --- 2. Csn / watermark algebra ---------------------------------------------

TEST(Csn, TotalOrderAndWatermarks) {
  EXPECT_LT((Csn{3, 9}), (Csn{4, 1}));      // ts dominates
  EXPECT_LT((Csn{3, 1}), (Csn{3, 2}));      // txn breaks ties
  EXPECT_EQ(tcs::watermark_below(0), (Csn{0, 0}));
  // Everything stamped strictly below ts=5 fits under watermark_below(5)...
  EXPECT_LE((Csn{4, tcs::kMaxTxnId}), tcs::watermark_below(5));
  // ...and nothing stamped at or above it does.
  EXPECT_GT((Csn{5, 0}), tcs::watermark_below(5));
  EXPECT_LE((Csn{7, tcs::kMaxTxnId}), tcs::watermark_at(7));
  EXPECT_GT((Csn{8, 0}), tcs::watermark_at(7));
}

// --- 3. the snapshot checker on crafted histories ---------------------------

tcs::History committed_chain() {
  // Object 0: version 1 (value 11, csn <10,1>) then version 2 (value 22,
  // csn <20,2>), both decided by t=100.
  tcs::History h;
  h.record_certify(1, 1, write_payload(0, 0, 11));
  h.record_decide(10, 1, Decision::kCommit, Csn{10, 1});
  h.record_certify(2, 2, write_payload(0, 1, 22));
  h.record_decide(20, 2, Decision::kCommit, Csn{20, 2});
  return h;
}

tcs::SnapshotReadRecord read_of(Time at, Csn snapshot, Version v, Value val) {
  tcs::SnapshotReadRecord r;
  r.time = at;
  r.snapshot = snapshot;
  r.observations = {{0, v, val}};
  return r;
}

TEST(SnapshotChecker, AcceptsConsistentReads) {
  tcs::History h = committed_chain();
  h.record_snapshot_read(read_of(100, Csn{15, tcs::kMaxTxnId}, 1, 11));
  h.record_snapshot_read(read_of(100, Csn{25, tcs::kMaxTxnId}, 2, 22));
  // A snapshot below every writer legitimately observes absence.
  h.record_snapshot_read(read_of(100, Csn{5, tcs::kMaxTxnId}, 0, 0));
  checker::SnapshotReadResult r = checker::check_snapshot_reads(h);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.reads_checked, 3u);
}

TEST(SnapshotChecker, RejectsObservationAboveTheSnapshot) {
  tcs::History h = committed_chain();
  // Version 2's writer has csn <20,2> — invisible at snapshot ts 15.
  h.record_snapshot_read(read_of(100, Csn{15, tcs::kMaxTxnId}, 2, 22));
  EXPECT_FALSE(checker::check_snapshot_reads(h).ok);
}

TEST(SnapshotChecker, RejectsMissedMandatoryWriter) {
  tcs::History h = committed_chain();
  // Both writers decided long before t=100 and sit below the snapshot, so
  // observing version 1 means the read missed a mandatory writer.
  h.record_snapshot_read(read_of(100, Csn{25, tcs::kMaxTxnId}, 1, 11));
  EXPECT_FALSE(checker::check_snapshot_reads(h).ok);
}

TEST(SnapshotChecker, RejectsVersionOrderAgainstCsnOrder) {
  tcs::History h;
  // Version 2 carries a LOWER csn than version 1: the global order the
  // store lookup depends on is broken, with or without any read.
  h.record_certify(1, 1, write_payload(0, 0, 11));
  h.record_decide(10, 1, Decision::kCommit, Csn{30, 1});
  h.record_certify(2, 2, write_payload(0, 1, 22));
  h.record_decide(20, 2, Decision::kCommit, Csn{20, 2});
  EXPECT_FALSE(checker::check_snapshot_reads(h).ok);
}

TEST(SnapshotChecker, RejectsStalenessBeyondTheBound) {
  tcs::History h = committed_chain();
  tcs::SnapshotReadRecord r = read_of(100, Csn{25, tcs::kMaxTxnId}, 2, 22);
  r.staleness_bound = 50;  // 25 + 50 < 100: served too stale for the bound
  h.record_snapshot_read(r);
  EXPECT_FALSE(checker::check_snapshot_reads(h).ok);
}

// --- 4. cluster smoke: all three stacks -------------------------------------

/// Commits `rounds` versions of objects 0..3 (spanning both shards) through
/// a co-located coordinator and returns the expected final value per object.
template <typename ClusterT, typename ClientT>
void commit_rounds(ClusterT& cluster, ClientT& client, int rounds) {
  for (int round = 1; round <= rounds; ++round) {
    for (ObjectId o = 0; o < 4; ++o) {
      TxnId t = cluster.next_txn_id();
      client.certify_colocated(
          cluster.replica(0, 0), t,
          write_payload(o, static_cast<Version>(round - 1),
                        static_cast<Value>(100 * round + static_cast<Value>(o))));
      // Wait on the decision, not queue exhaustion: a nonzero retry_timeout
      // keeps a periodic timer alive forever, so sim().run() never returns.
      ASSERT_TRUE(
          cluster.sim().run_until_pred([&] { return client.decided(t); }));
      ASSERT_EQ(client.decision(t), Decision::kCommit)
          << "round " << round << " object " << o;
    }
  }
  // Let the trailing DECISION messages reach the shard replicas: until they
  // apply, the last transaction is still prepared there and legitimately
  // pins the read watermark below its csn.
  cluster.sim().run_until(cluster.sim().now() + 100);
}

TEST(SnapshotReadCluster, CommitServesConsistentSnapshotWithZeroMessages) {
  commit::Cluster cluster(
      {.seed = 9, .num_shards = 2, .shard_size = 2, .enable_tracer = true});
  commit::Client& client = cluster.add_client();
  commit_rounds(cluster, client, 3);

  std::size_t wire_before = cluster.tracer().entries().size();
  std::optional<Csn> snap = cluster.snapshot_read({0, 1, 2, 3});
  ASSERT_TRUE(snap.has_value());
  // The fast path is synchronous local state inspection: nothing on the wire.
  EXPECT_EQ(cluster.tracer().entries().size(), wire_before);

  const tcs::SnapshotReadRecord& rec = cluster.history().snapshot_reads().back();
  ASSERT_EQ(rec.observations.size(), 4u);
  for (const auto& obs : rec.observations) {
    EXPECT_EQ(obs.version, 3u) << "object " << obs.object;
    EXPECT_EQ(obs.value, 300 + static_cast<Value>(obs.object));
  }
  checker::SnapshotReadResult r = checker::check_snapshot_reads(cluster.history());
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(SnapshotReadCluster, CommitFollowersServeViaMemberRotation) {
  commit::Cluster cluster({.seed = 10, .num_shards = 2, .shard_size = 3});
  commit::Client& client = cluster.add_client();
  commit_rounds(cluster, client, 2);
  // Every rotation offset must find a serving member — including the ones
  // that start the pick at a follower.
  for (std::uint64_t hint = 0; hint < 3; ++hint) {
    EXPECT_TRUE(cluster.snapshot_read({0, 1}, 0, hint).has_value())
        << "member_hint " << hint;
  }
  checker::SnapshotReadResult r = checker::check_snapshot_reads(cluster.history());
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(SnapshotReadCluster, RdmaServesConsistentSnapshotWithZeroMessages) {
  rdma::Cluster cluster(
      {.seed = 11, .num_shards = 2, .shard_size = 2, .enable_tracer = true});
  rdma::Client& client = cluster.add_client();
  commit_rounds(cluster, client, 3);

  std::size_t wire_before = cluster.tracer().entries().size();
  std::optional<Csn> snap = cluster.snapshot_read({0, 1, 2, 3});
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(cluster.tracer().entries().size(), wire_before);

  const tcs::SnapshotReadRecord& rec = cluster.history().snapshot_reads().back();
  ASSERT_EQ(rec.observations.size(), 4u);
  for (const auto& obs : rec.observations) {
    EXPECT_EQ(obs.version, 3u) << "object " << obs.object;
  }
  checker::SnapshotReadResult r = checker::check_snapshot_reads(cluster.history());
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(SnapshotReadCluster, BaselineLeaderGateServesAndRefuses) {
  baseline::BaselineCluster cluster({.seed = 12, .num_shards = 2});
  baseline::BaselineClient& client = cluster.add_client();
  for (ObjectId o = 0; o < 2; ++o) {
    Payload p = write_payload(o, 0, static_cast<Value>(7 + o));
    TxnId t = cluster.next_txn_id();
    client.certify(cluster.coordinator_for(p), t, p);
    ASSERT_TRUE(cluster.sim().run_until_pred([&] { return client.decided(t); }));
    ASSERT_EQ(client.decision(t), Decision::kCommit);
  }

  std::optional<Csn> snap = cluster.snapshot_read({0, 1});
  ASSERT_TRUE(snap.has_value());
  const tcs::SnapshotReadRecord& rec = cluster.history().snapshot_reads().back();
  ASSERT_EQ(rec.observations.size(), 2u);
  EXPECT_EQ(rec.observations[0].version, 1u);
  EXPECT_EQ(rec.observations[0].value, 7);
  checker::SnapshotReadResult r = checker::check_snapshot_reads(cluster.history());
  EXPECT_TRUE(r.ok) << r.error;

  // The baseline has no all-follower-ack rule, so followers may never
  // serve: with shard 0's leader gone the read is refused, not misserved.
  cluster.crash_server(cluster.leader_server(0));
  EXPECT_FALSE(cluster.snapshot_read({0}).has_value());
  // Shard 1's leader still serves reads that avoid the dead shard.
  EXPECT_TRUE(cluster.snapshot_read({1}).has_value());
}

TEST(SnapshotReadCluster, BaselineWatermarkTracksPreparedUndecidedOnly) {
  // Feed one shard server the replicated commands directly, the way its
  // Paxos replica applies them.  A follower is used so that no vote or
  // termination answer leaves the server.
  baseline::BaselineCluster cluster({.seed = 14, .num_shards = 1});
  baseline::ShardServer& sv = cluster.server(0, 1);
  ASSERT_FALSE(sv.paxos().is_leader());
  Slot slot = 0;
  auto apply = [&](auto cmd) { sv.apply(++slot, sim::AnyMessage(std::move(cmd))); };
  auto prepare = [&](TxnId t, Time ts) {
    baseline::CmdPrepare c;
    c.txn = t;
    c.payload = write_payload(static_cast<ObjectId>(t), 0, 1);
    c.participants = {0};
    c.prepare_ts = ts;
    apply(c);
  };
  const Csn idle = tcs::watermark_at(cluster.sim().now());
  EXPECT_EQ(sv.read_watermark(), idle);

  prepare(1, 50);
  EXPECT_EQ(sv.read_watermark(), tcs::watermark_below(50));
  prepare(1, 70);  // duplicate prepare: the original stamp stands
  EXPECT_EQ(sv.read_watermark(), tcs::watermark_below(50));
  prepare(2, 30);
  EXPECT_EQ(sv.read_watermark(), tcs::watermark_below(30));
  apply(baseline::CmdDecide{2, Decision::kCommit});
  EXPECT_EQ(sv.read_watermark(), tcs::watermark_below(50));

  // A termination tombstone that beats the prepare into the log leaves t
  // prepared and decided at once: it can never commit, so it never gates.
  apply(baseline::CmdResolveAbort{3, kNoProcess});
  prepare(3, 10);
  ASSERT_TRUE(sv.has_prepared(3));
  ASSERT_TRUE(sv.has_decided(3));
  EXPECT_EQ(sv.read_watermark(), tcs::watermark_below(50));

  apply(baseline::CmdDecide{1, Decision::kAbort});
  EXPECT_EQ(sv.read_watermark(), idle);
  prepare(1, 5);  // a late duplicate of a decided transaction
  apply(baseline::CmdDecide{4, Decision::kAbort});  // tombstone, never prepared
  EXPECT_EQ(sv.read_watermark(), idle);
}

TEST(SnapshotReadCluster, BoundedStalenessRefusesLaggingSnapshots) {
  // Park a prepared-undecided transaction at shard 0's leader by cutting
  // the coordinator off mid-protocol: the watermark pins below its prepare
  // stamp, so as time advances a tight staleness bound must start refusing
  // while the unbounded read keeps serving.
  commit::Cluster cluster({.seed = 13, .num_shards = 2, .shard_size = 2,
                           .retry_timeout = 1'000'000});
  commit::Client& client = cluster.add_client();
  commit_rounds(cluster, client, 1);

  Payload p = write_payload(0, 1, 99);
  TxnId t = cluster.next_txn_id();
  commit::Replica& coordinator = cluster.replica(1, 1);
  client.certify_colocated(coordinator, t, p);
  ProcessId leader0 = cluster.leader_of(0);
  ASSERT_TRUE(cluster.sim().run_until_pred([&] {
    Slot k = cluster.replica_by_pid(leader0).log().slot_of(t);
    return k != kNoSlot;
  }));
  cluster.crash(coordinator.id());
  cluster.sim().run_until(cluster.sim().now() + 5'000);

  EXPECT_TRUE(cluster.snapshot_read({0}).has_value());       // unbounded: ok
  EXPECT_FALSE(cluster.snapshot_read({0}, 100).has_value()); // bounded: too stale
}

}  // namespace
}  // namespace ratc
