#include <gtest/gtest.h>

#include "tcs/history.h"
#include "tcs/payload.h"
#include "tcs/shard_map.h"

namespace ratc::tcs {
namespace {

Payload make_payload(std::vector<ReadEntry> reads, std::vector<WriteEntry> writes,
                     Version vc) {
  Payload p;
  p.reads = std::move(reads);
  p.writes = std::move(writes);
  p.commit_version = vc;
  return p;
}

TEST(Payload, EmptyPayloadIsEpsilon) {
  Payload p = empty_payload();
  EXPECT_TRUE(p.is_empty());
  EXPECT_TRUE(p.well_formed());
}

TEST(Payload, ReadWriteAccessors) {
  Payload p = make_payload({{1, 5}, {2, 3}}, {{1, 42}}, 6);
  EXPECT_TRUE(p.reads_object(1));
  EXPECT_TRUE(p.reads_object(2));
  EXPECT_FALSE(p.reads_object(3));
  EXPECT_TRUE(p.writes_object(1));
  EXPECT_FALSE(p.writes_object(2));
  EXPECT_EQ(p.read_version(1), 5u);
  EXPECT_EQ(p.read_version(2), 3u);
  EXPECT_FALSE(p.read_version(9).has_value());
}

TEST(Payload, WellFormedAcceptsReadOnly) {
  Payload p = make_payload({{1, 5}}, {}, 0);
  EXPECT_TRUE(p.well_formed());
}

TEST(Payload, WellFormedRejectsWriteWithoutRead) {
  Payload p = make_payload({{1, 5}}, {{2, 9}}, 6);
  EXPECT_FALSE(p.well_formed());
}

TEST(Payload, WellFormedRejectsDuplicateReads) {
  Payload p = make_payload({{1, 5}, {1, 6}}, {}, 7);
  EXPECT_FALSE(p.well_formed());
}

TEST(Payload, WellFormedRejectsDuplicateWrites) {
  Payload p = make_payload({{1, 5}}, {{1, 9}, {1, 10}}, 6);
  EXPECT_FALSE(p.well_formed());
}

TEST(Payload, WellFormedRequiresCommitVersionAboveReads) {
  Payload p = make_payload({{1, 5}}, {{1, 9}}, 5);
  EXPECT_FALSE(p.well_formed());
  p.commit_version = 6;
  EXPECT_TRUE(p.well_formed());
}

TEST(Payload, WireSizeGrowsWithSets) {
  Payload small = make_payload({{1, 5}}, {}, 0);
  Payload big = make_payload({{1, 5}, {2, 5}, {3, 5}}, {{1, 1}, {2, 2}}, 6);
  EXPECT_GT(big.wire_size(), small.wire_size());
}

TEST(ShardMap, ProjectionSplitsByShard) {
  ShardMap sm(2);
  // Objects 2,4 -> shard 0; objects 1,3 -> shard 1.
  Payload p = make_payload({{1, 5}, {2, 7}, {3, 1}}, {{1, 10}, {2, 20}}, 8);
  Payload p0 = sm.project(p, 0);
  Payload p1 = sm.project(p, 1);
  EXPECT_EQ(p0.reads.size(), 1u);
  EXPECT_EQ(p0.reads[0].object, 2u);
  EXPECT_EQ(p0.writes.size(), 1u);
  EXPECT_EQ(p0.writes[0].object, 2u);
  EXPECT_EQ(p1.reads.size(), 2u);
  EXPECT_EQ(p1.writes.size(), 1u);
  EXPECT_EQ(p0.commit_version, 8u);
  EXPECT_EQ(p1.commit_version, 8u);
}

TEST(ShardMap, ProjectionToUninvolvedShardIsEmpty) {
  ShardMap sm(4);
  Payload p = make_payload({{0, 1}, {4, 2}}, {{0, 9}}, 3);  // both objects on shard 0
  EXPECT_TRUE(sm.project(p, 1).is_empty());
  EXPECT_TRUE(sm.project(p, 2).is_empty());
  EXPECT_FALSE(sm.project(p, 0).is_empty());
}

TEST(ShardMap, SharedProjectionReusesOrSplits) {
  ShardMap sm(4);
  Shared<Payload> on_one = make_payload({{0, 1}, {4, 2}}, {{0, 9}}, 3);  // both on shard 0
  // A payload on one shard is its own projection there, and ε elsewhere.
  EXPECT_EQ(sm.project(on_one, 0).get(), on_one.get());
  EXPECT_EQ(sm.project(on_one, 1).get(), Shared<Payload>().get());
  EXPECT_TRUE(sm.project(on_one, 1)->is_empty());
  // A split payload gets a new object per shard, equal to project()'s.
  Shared<Payload> split = make_payload({{1, 5}, {2, 7}}, {{1, 10}}, 8);
  Shared<Payload> p1 = sm.project(split, 1);
  EXPECT_NE(p1.get(), split.get());
  EXPECT_EQ(*p1, sm.project(*split, 1));
  EXPECT_EQ(*sm.project(split, 2), sm.project(*split, 2));
}

TEST(ShardMap, ShardsOfCollectsInvolvedShards) {
  ShardMap sm(3);
  Payload p = make_payload({{0, 1}, {1, 1}, {3, 1}}, {{1, 5}}, 2);
  // objects 0,3 -> shard 0; object 1 -> shard 1.
  auto shards = sm.shards_of(p);
  EXPECT_EQ(shards, (std::vector<ShardId>{0, 1}));
}

TEST(ShardMap, EmptyPayloadTouchesNoShards) {
  ShardMap sm(3);
  EXPECT_TRUE(sm.shards_of(empty_payload()).empty());
}

TEST(History, SharesTheCertifiedPayload) {
  Shared<Payload> p = make_payload({{1, 0}}, {{1, 7}}, 1);
  History h;
  h.record_certify(10, 1, p);
  h.record_decide(11, 1, Decision::kCommit);
  EXPECT_EQ(h.payload_of(1), p.get());
  // A history merged from it holds the same object, and payload_of stays
  // valid as events are added.
  History merged;
  for (const HistoryEvent& e : h.events()) {
    if (e.kind == HistoryEvent::Kind::kCertify) merged.record_certify(e.time, e.txn, e.payload);
  }
  const Payload* first = merged.payload_of(1);
  for (TxnId t = 2; t < 100; ++t) merged.record_certify(12, t, Payload{});
  EXPECT_EQ(first, p.get());
  EXPECT_EQ(merged.payload_of(1), p.get());
}

TEST(History, RecordsAndQueries) {
  History h;
  Payload p = make_payload({{1, 0}}, {{1, 7}}, 1);
  h.record_certify(10, 1, p);
  EXPECT_TRUE(h.certified(1));
  EXPECT_FALSE(h.complete());
  h.record_decide(15, 1, Decision::kCommit);
  EXPECT_TRUE(h.complete());
  EXPECT_EQ(h.decision_of(1), Decision::kCommit);
  EXPECT_EQ(h.committed_txns(), (std::vector<TxnId>{1}));
  EXPECT_EQ(h.aborted_count(), 0u);
  ASSERT_NE(h.payload_of(1), nullptr);
  EXPECT_EQ(*h.payload_of(1), p);
}

TEST(History, FirstDecisionWinsAndConflictsDetected) {
  History h;
  h.record_certify(1, 1, empty_payload());
  h.record_decide(2, 1, Decision::kCommit);
  h.record_decide(3, 1, Decision::kAbort);  // contradictory externalization
  EXPECT_EQ(h.decision_of(1), Decision::kCommit);
  EXPECT_EQ(h.conflicting_decisions(), (std::vector<TxnId>{1}));
}

TEST(History, DuplicateConsistentDecisionsAreFine) {
  History h;
  h.record_certify(1, 1, empty_payload());
  h.record_decide(2, 1, Decision::kAbort);
  h.record_decide(3, 1, Decision::kAbort);
  EXPECT_TRUE(h.conflicting_decisions().empty());
  EXPECT_EQ(h.aborted_count(), 1u);
}

TEST(History, CertifiedTwiceKeepsFirstPayloadAndBothEvents) {
  History h;
  Payload first = make_payload({{1, 0}}, {{1, 7}}, 1);
  Payload second = make_payload({{2, 3}}, {}, 4);
  h.record_certify(1, 5, first);
  h.record_certify(2, 5, second);
  ASSERT_NE(h.payload_of(5), nullptr);
  EXPECT_EQ(*h.payload_of(5), first);
  ASSERT_EQ(h.events().size(), 2u);
  EXPECT_EQ(h.events()[0].kind, HistoryEvent::Kind::kCertify);
  EXPECT_EQ(h.events()[0].payload, first);
  EXPECT_EQ(h.events()[1].kind, HistoryEvent::Kind::kCertify);
  EXPECT_EQ(h.events()[1].payload, second);
  EXPECT_EQ(h.all_txns(), (std::vector<TxnId>{5}));
}

TEST(History, DecideWithoutCertifyIsNotACertifiedTransaction) {
  History h;
  h.record_certify(1, 1, empty_payload());
  h.record_decide(2, 1, Decision::kAbort);
  h.record_decide(3, 9, Decision::kCommit);  // never certified here
  EXPECT_EQ(h.decision_of(9), Decision::kCommit);
  EXPECT_FALSE(h.certified(9));
  EXPECT_EQ(h.payload_of(9), nullptr);
  EXPECT_EQ(h.all_txns(), (std::vector<TxnId>{1}));
  EXPECT_EQ(h.committed_txns(), (std::vector<TxnId>{9}));
  EXPECT_EQ(h.aborted_count(), 1u);
  EXPECT_TRUE(h.complete());
}

TEST(History, FirstDecisionTimeAndCsnSurviveAConflictingDecide) {
  History h;
  h.record_certify(1, 3, make_payload({{1, 0}}, {{1, 7}}, 1));
  h.record_decide(10, 3, Decision::kCommit, Csn{7, 3});
  h.record_decide(20, 3, Decision::kAbort);
  EXPECT_EQ(h.decision_of(3), Decision::kCommit);
  EXPECT_EQ(h.first_decide_time(3), Time{10});
  EXPECT_EQ(h.csn_of(3), (Csn{7, 3}));
  EXPECT_EQ(h.conflicting_decisions(), (std::vector<TxnId>{3}));
  EXPECT_EQ(h.committed_txns(), (std::vector<TxnId>{3}));
  EXPECT_EQ(h.aborted_count(), 0u);
}

TEST(History, TransactionListsAscendAfterOutOfOrderCertifies) {
  History h;
  for (TxnId t : {5, 2, 9, 1}) h.record_certify(t, t, empty_payload());
  EXPECT_EQ(h.all_txns(), (std::vector<TxnId>{1, 2, 5, 9}));
  for (TxnId t : {9, 1, 5}) h.record_decide(10 + t, t, Decision::kCommit);
  EXPECT_EQ(h.committed_txns(), (std::vector<TxnId>{1, 5, 9}));
  EXPECT_FALSE(h.complete());
  EXPECT_FALSE(h.first_decide_time(2).has_value());
  EXPECT_EQ(h.first_decide_time(9), Time{19});
}

TEST(History, ToStringMentionsActions) {
  History h;
  h.record_certify(1, 42, empty_payload());
  h.record_decide(2, 42, Decision::kCommit);
  auto s = h.to_string();
  EXPECT_NE(s.find("certify(txn42"), std::string::npos);
  EXPECT_NE(s.find("decide(txn42, commit"), std::string::npos);
}

}  // namespace
}  // namespace ratc::tcs
