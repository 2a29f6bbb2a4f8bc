// Unit tests for the replica-side certification log (the paper's txn /
// payload / vote / dec / phase arrays with holes).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>

#include "commit/log.h"
#include "common/random.h"

namespace ratc::commit {
namespace {

using tcs::Decision;

TEST(ReplicaLog, EmptyLog) {
  ReplicaLog log;
  EXPECT_EQ(log.max_filled(), 0u);
  EXPECT_EQ(log.slot_of(1), kNoSlot);
  EXPECT_EQ(log.find(1), nullptr);
  EXPECT_EQ(log.size(), 0u);
}

TEST(ReplicaLog, AtGrowsAndFills) {
  ReplicaLog log;
  LogEntry& e = log.at(3);
  e.txn = 42;
  e.phase = Phase::kPrepared;
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.max_filled(), 3u);
  EXPECT_EQ(log.slot_of(42), 3u);
  // Slots 1 and 2 are holes.
  EXPECT_FALSE(log.find(1)->filled());
  EXPECT_FALSE(log.find(2)->filled());
}

TEST(ReplicaLog, MaxFilledSkipsTrailingHoles) {
  ReplicaLog log;
  log.at(1).phase = Phase::kPrepared;
  log.at(1).txn = 1;
  log.at(5);  // grows but stays a hole
  EXPECT_EQ(log.size(), 5u);
  EXPECT_EQ(log.max_filled(), 1u);
}

TEST(ReplicaLog, SlotOfIgnoresHoles) {
  ReplicaLog log;
  log.at(2).txn = 7;  // phase still kStart: not "filled"
  EXPECT_EQ(log.slot_of(7), kNoSlot);
  log.at(2).phase = Phase::kDecided;
  EXPECT_EQ(log.slot_of(7), 2u);
}

TEST(ReplicaLog, FindOutOfRange) {
  ReplicaLog log;
  log.at(2).phase = Phase::kPrepared;
  EXPECT_EQ(log.find(0), nullptr);   // slot 0 invalid
  EXPECT_EQ(log.find(3), nullptr);   // beyond the end
  EXPECT_NE(log.find(2), nullptr);
}

TEST(ReplicaLog, CopySemanticsForStateTransfer) {
  // NEW_STATE copies the whole log; the copy must be independent.
  ReplicaLog log;
  log.at(1).txn = 1;
  log.at(1).phase = Phase::kPrepared;
  log.at(1).vote = Decision::kCommit;
  ReplicaLog copy = log;
  copy.at(1).vote = Decision::kAbort;
  copy.at(2).txn = 2;
  copy.at(2).phase = Phase::kPrepared;
  EXPECT_EQ(log.find(1)->vote, Decision::kCommit);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(copy.size(), 2u);
}

TEST(ReplicaLog, WireSizeGrowsWithPayloads) {
  ReplicaLog small, big;
  small.at(1).phase = Phase::kPrepared;
  big.at(1).phase = Phase::kPrepared;
  big.at(1).payload.reads = {{1, 0}, {2, 0}, {3, 0}};
  big.at(2).phase = Phase::kPrepared;
  EXPECT_GT(big.wire_size(), small.wire_size());
}

// --- the read watermark's query ---------------------------------------------
//
// ReplicaLog::min_prepared_ts(slots) reads only the slots a replica tracks
// as prepared (its prepared_at_).  It must equal the whole-log scan it
// replaced (scan_min_prepared_ts()) whenever those slots include every
// prepared slot, whatever stale keys of since-decided slots they also hold.
// That the replicas keep prepared_at_ covering is cross-checked on every
// read of the SnapshotReadSweep suites (check_certifier_index).

using Slots = FlatMap<Slot, Time>;

/// Slot k prepared for `txn` under stamp `ts` and tracked, as a leader
/// append, a follower ACCEPT or an RAccept (no phase guard) does it.
void prepare(ReplicaLog& log, Slots& slots, Slot k, TxnId txn, Time ts) {
  LogEntry& e = log.at(k);
  e.txn = txn;
  e.phase = Phase::kPrepared;
  e.prepare_ts = ts;
  slots[k] = ts;
}

/// An abort decided at slot k and untracked, as DECISION and RDecision
/// record it; a hole takes the transaction id.
void decide(ReplicaLog& log, Slots& slots, Slot k, TxnId txn) {
  LogEntry& e = log.at(k);
  if (e.phase == Phase::kStart) e.txn = txn;
  e.dec = Decision::kAbort;
  e.phase = Phase::kDecided;
  slots.erase(k);
}

TEST(ReplicaLogWatermark, ReadsOnlyTrackedSlotsThatArePrepared) {
  ReplicaLog log;
  Slots slots;
  EXPECT_EQ(log.min_prepared_ts(slots), std::nullopt);
  EXPECT_EQ(log.scan_min_prepared_ts(), std::nullopt);
  prepare(log, slots, 1, 11, 50);
  prepare(log, slots, 4, 14, 20);  // out-of-order follower fill: 2, 3 are holes
  EXPECT_EQ(log.min_prepared_ts(slots), 20u);
  decide(log, slots, 3, 13);  // a decision on a hole
  EXPECT_EQ(log.min_prepared_ts(slots), 20u);
  decide(log, slots, 4, 14);
  EXPECT_EQ(log.min_prepared_ts(slots), 50u);
  // Stale keys (a hole, decided slots, a slot past the end) never gate.
  for (Slot k : {2, 3, 4, 9}) slots.emplace(k, 0);
  EXPECT_EQ(log.min_prepared_ts(slots), 50u);
  decide(log, slots, 1, 11);
  EXPECT_EQ(log.min_prepared_ts(slots), std::nullopt);
  // An RAccept overwrites a decided slot back to prepared under a new stamp.
  prepare(log, slots, 4, 24, 5);
  EXPECT_EQ(log.min_prepared_ts(slots), 5u);
  EXPECT_EQ(log.min_prepared_ts(slots), log.scan_min_prepared_ts());
}

TEST(ReplicaLogWatermark, RandomWritesMatchTheScanForAnyCoveringSlotSet) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    ReplicaLog log;
    Slots slots;
    Slot next = 0;
    TxnId txn = 0;
    Time now = 1;
    for (int step = 0; step < 300; ++step) {
      const Slot reach = log.size() + 4;  // slots past the end grow the log
      now += rng.range(0, 3);            // stamps may repeat across slots
      std::string what = "no-op";
      switch (rng.below(7)) {
        case 0:
          next = std::max(next, log.max_filled()) + 1;
          prepare(log, slots, next, ++txn, now);
          what = "leader append";
          break;
        case 1: {
          // Follower ACCEPT: fills only a hole, anywhere, with a stamp that
          // may be older than those the follower already holds.
          Slot k = rng.range(1, reach);
          const LogEntry* e = log.find(k);
          if (e == nullptr || !e->filled()) prepare(log, slots, k, ++txn, rng.range(1, now));
          what = "follower fill";
          break;
        }
        case 2:
        case 3: {
          Slot k = rng.range(1, reach);  // a filled slot or a hole
          decide(log, slots, k, ++txn);
          if (rng.chance(0.3)) slots[k] = now;  // a stale key the query must skip
          what = "decision";
          break;
        }
        case 4:
          if (log.size() == 0) break;
          // RDMA RAccept: no phase guard, so prepared and decided slots too.
          prepare(log, slots, rng.range(1, log.size()), ++txn, rng.range(1, now));
          what = "rdma overwrite";
          break;
        case 5: {
          // A raw write through at() (perfbench's build_log pattern), of any
          // phase; tracked when it leaves the slot prepared.
          Slot k = rng.range(1, reach);
          LogEntry& e = log.at(k);
          e.phase = static_cast<Phase>(rng.below(3));
          e.prepare_ts = rng.range(1, now);
          if (e.phase == Phase::kPrepared) slots[k] = now;
          what = "raw at() write";
          break;
        }
        default: {
          // NEW_STATE: the log replaced by a copy, prepared_at_ rebuilt.
          ReplicaLog transferred;
          transferred = log;
          log = transferred;
          slots.clear();
          for (Slot k = 1; k <= log.size(); ++k) {
            if (log.find(k)->phase == Phase::kPrepared) slots[k] = now;
          }
          next = log.max_filled();
          what = "copy-assignment";
        }
      }
      ASSERT_EQ(log.min_prepared_ts(slots), log.scan_min_prepared_ts())
          << "seed " << seed << " step " << step << ": " << what;
    }
  }
}

TEST(TxnMetaEquality, UsedByResendPaths) {
  TxnMeta a{1, {0, 2}, 77};
  TxnMeta b{1, {0, 2}, 77};
  TxnMeta c{1, {0, 1}, 77};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

}  // namespace
}  // namespace ratc::commit
