// Runtime monitor for the RDMA-based protocol.
//
// Checks the two properties that distinguish the safe and unsafe variants:
//  * decision uniqueness (Invariant 4): per slot of a shard, per transaction
//    and at the client boundary — the property the Figure 4a counter-example
//    violates;
//  * Invariant 13 / property (*) of Sec. 5: when an ACCEPT write lands in a
//    process's memory, the receiver's current epoch equals the epoch at
//    which the leader prepared the transaction.  The corrected protocol
//    guarantees this via connection management; the per-shard strawman does
//    not.
#pragma once

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "checker/tcsll.h"
#include "commit/messages.h"
#include "common/types.h"
#include "common/violation.h"
#include "configsvc/config.h"
#include "rdma/fabric.h"
#include "rdma/messages.h"
#include "rdma/replica.h"
#include "sim/network.h"
#include "tcs/history.h"

namespace ratc::rdma {

class RdmaMonitor : public sim::NetworkObserver,
                    public FabricObserver,
                    public commit::CertificationObserver {
 public:
  explicit RdmaMonitor(sim::Simulator& sim) : sim_(sim) {}

  void register_replica(Replica* r) { replicas_[r->id()] = r; }

  /// Registers the membership of (shard, epoch); fed by the bootstrap and
  /// by observing CONFIG_PREPARE / NEW_CONFIG traffic.  Needed to decide
  /// when an acceptance is complete (all followers' writes landed).
  void register_members(ShardId shard, Epoch epoch, std::vector<ProcessId> members,
                        ProcessId leader) {
    configs_.emplace(std::make_pair(shard, epoch),
                     std::make_pair(std::move(members), leader));
  }

  void on_local_decision(TxnId txn, tcs::Decision d) override { check_decision(txn, d); }

  /// Vote-computation witnesses, reported by leaders (Fig. 7 line 85); the
  /// raw material for the TCS-LL records.
  void on_vote_computed(ShardId shard, Epoch epoch, Slot slot, TxnId txn,
                        tcs::Decision vote, const tcs::Payload& payload,
                        std::vector<TxnId> committed_against,
                        std::vector<TxnId> prepared_against) override {
    VoteRecord rec;
    rec.vote = vote;
    rec.payload = payload;
    rec.committed_against = std::move(committed_against);
    rec.prepared_against = std::move(prepared_against);
    votes_[{shard, slot, txn}][epoch] = std::move(rec);
  }

  /// Assembles the TCS-LL (Fig. 6) checker input from the collected
  /// acceptance records — same oracle as the message-passing protocol's.
  checker::TcsLLInput tcsll_input(const tcs::History& history,
                                  const tcs::ShardMap& shard_map,
                                  const tcs::Certifier& certifier) const {
    checker::TcsLLInput input;
    input.history = &history;
    input.shard_map = &shard_map;
    input.certifier = &certifier;
    input.decided = decided_;
    auto to_record = [this](const Acceptance& acc) {
      checker::ShardCertRecord rec;
      rec.txn = acc.txn;
      rec.shard = acc.shard;
      rec.epoch = acc.epoch;
      rec.pos = acc.slot;
      rec.vote = acc.vote;
      rec.pload = acc.payload;
      auto vit = votes_.find({acc.shard, acc.slot, acc.txn});
      if (vit != votes_.end()) {
        const VoteRecord* best = nullptr;
        for (const auto& [e, v] : vit->second) {
          if (e <= acc.epoch) best = &v;
        }
        if (best == nullptr) best = &vit->second.begin()->second;
        rec.committed_against = best->committed_against;
        rec.prepared_against = best->prepared_against;
      }
      return rec;
    };
    for (const auto& [key, acc_key] : accepted_txn_) {
      (void)key;
      const Acceptance& acc = acceptances_.at(acc_key);
      input.records.emplace(std::make_pair(acc.txn, acc.shard), to_record(acc));
    }
    // Every complete acceptance as a (txn, shard, epoch) incarnation, for
    // the per-incarnation witness resolution of constraint (11).
    for (const auto& [key, acc] : acceptances_) {
      (void)key;
      if (!acc.complete) continue;
      input.incarnations.emplace(std::make_tuple(acc.txn, acc.shard, acc.epoch),
                                 to_record(acc));
    }
    return input;
  }

  // Network tap: client-facing decisions and configuration dissemination.
  void on_send(Time now, ProcessId from, ProcessId to,
               const sim::AnyMessage& msg) override {
    (void)now;
    (void)from;
    if (const auto* cd = msg.as<commit::ClientDecision>()) {
      check_decision(cd->txn, cd->decision);
    } else if (const auto* cp = msg.as<ConfigPrepare>()) {
      // Safe mode: the global configuration, per shard.
      for (const auto& [s, members] : cp->config.members) {
        register_members(s, cp->config.epoch, members, cp->config.leaders.at(s));
      }
    } else if (const auto* nc = msg.as<commit::NewConfig>()) {
      // Unsafe per-shard mode: the recipient is the new leader of its shard.
      auto it = replicas_.find(to);
      if (it != replicas_.end()) {
        register_members(it->second->shard(), nc->epoch, nc->members, to);
      }
    }
  }

  // Fabric tap: one-sided writes.
  void on_write(Time now, ProcessId from, ProcessId to,
                const sim::AnyMessage& msg) override {
    (void)now;
    (void)from;
    (void)to;
    if (const auto* d = msg.as<RDecision>()) {
      auto [it, inserted] =
          slot_decision_.emplace(std::make_pair(d->shard, d->slot), d->decision);
      if (!inserted && it->second != d->decision) {
        report("Invariant4a", "slot " + std::to_string(d->slot) + " of s" +
                                  std::to_string(d->shard) + " decided both ways");
      }
      check_decision(d->txn, d->decision);
    } else if (const auto* a = msg.as<RAccept>()) {
      on_write_accept(*a);
    } else if (const auto* ab = msg.as<RAcceptBatch>()) {
      // A batched write is the back-to-back landing of its items: each is
      // checked exactly as if it had been written alone.
      for (const RAccept& item : ab->items) on_write_accept(item);
    }
  }

  void on_landed(Time now, ProcessId from, ProcessId to,
                 const sim::AnyMessage& msg) override {
    (void)now;
    (void)from;
    if (const auto* a = msg.as<RAccept>()) {
      on_landed_accept(to, *a);
    } else if (const auto* ab = msg.as<RAcceptBatch>()) {
      for (const RAccept& item : ab->items) on_landed_accept(to, item);
    }
  }

  const ViolationSink& violations() const { return sink_; }
  const std::map<TxnId, tcs::Decision>& decided() const { return decided_; }

 private:
  struct Acceptance {
    ShardId shard = 0;
    Epoch epoch = kNoEpoch;
    Slot slot = kNoSlot;
    TxnId txn = 0;
    tcs::Payload payload;
    tcs::Decision vote = tcs::Decision::kAbort;
    std::set<ProcessId> acks;
    bool complete = false;
  };
  struct VoteRecord {
    tcs::Decision vote = tcs::Decision::kAbort;
    tcs::Payload payload;
    std::vector<TxnId> committed_against;
    std::vector<TxnId> prepared_against;
  };
  using AcceptKey = std::tuple<ShardId, Epoch, Slot>;

  void on_write_accept(const RAccept& a) {
    AcceptKey key{a.shard, a.epoch, a.slot};
    auto it = acceptances_.find(key);
    if (it == acceptances_.end()) {
      Acceptance acc;
      acc.shard = a.shard;
      acc.epoch = a.epoch;
      acc.slot = a.slot;
      acc.txn = a.txn;
      acc.payload = a.payload;
      acc.vote = a.vote;
      it = acceptances_.emplace(key, std::move(acc)).first;
      maybe_complete(it->second);  // zero-follower configurations
    }
  }

  void on_landed_accept(ProcessId to, const RAccept& a) {
    auto it = replicas_.find(to);
    if (it == replicas_.end()) return;
    Epoch receiver_epoch = it->second->epoch();
    // Property (*): the landing epoch equals the epoch the leader prepared
    // the transaction at.  Self-writes are synchronous local stores (the
    // fabric lands them immediately), so the check applies to every
    // landing — remote or local — without exemption.
    if (receiver_epoch != a.epoch) {
      report("Invariant13",
             "ACCEPT for txn" + std::to_string(a.txn) + " prepared at epoch " +
                 std::to_string(a.epoch) + " landed at " + process_name(to) +
                 " in epoch " + std::to_string(receiver_epoch));
    }
    // Landing == the receiver's NIC acknowledged == the paper's "responded":
    // track acceptance completion.
    auto ait = acceptances_.find(AcceptKey{a.shard, a.epoch, a.slot});
    if (ait != acceptances_.end() && ait->second.txn == a.txn) {
      ait->second.acks.insert(to);
      maybe_complete(ait->second);
    }
  }

  void maybe_complete(Acceptance& acc) {
    if (acc.complete) return;
    auto cit = configs_.find({acc.shard, acc.epoch});
    if (cit == configs_.end()) return;
    const auto& [members, leader] = cit->second;
    for (ProcessId m : members) {
      if (m != leader && acc.acks.count(m) == 0) return;
    }
    acc.complete = true;
    accepted_txn_.emplace(std::make_pair(acc.shard, acc.txn),
                          AcceptKey{acc.shard, acc.epoch, acc.slot});
  }

  void check_decision(TxnId txn, tcs::Decision d) {
    auto [it, inserted] = decided_.emplace(txn, d);
    if (!inserted && it->second != d) {
      report("Invariant4b", "txn" + std::to_string(txn) + " decided both " +
                                std::string(tcs::to_string(it->second)) + " and " +
                                tcs::to_string(d));
    }
  }

  void report(const std::string& invariant, const std::string& details) {
    if (!reported_.insert(invariant + "|" + details).second) return;
    sink_.report(sim_.now(), invariant, details);
  }

  sim::Simulator& sim_;
  ViolationSink sink_;
  std::map<ProcessId, Replica*> replicas_;
  std::map<TxnId, tcs::Decision> decided_;
  std::map<std::pair<ShardId, Slot>, tcs::Decision> slot_decision_;
  /// (shard, epoch) -> (members, leader).
  std::map<std::pair<ShardId, Epoch>, std::pair<std::vector<ProcessId>, ProcessId>>
      configs_;
  std::map<AcceptKey, Acceptance> acceptances_;
  std::map<std::pair<ShardId, TxnId>, AcceptKey> accepted_txn_;
  std::map<std::tuple<ShardId, Slot, TxnId>, std::map<Epoch, VoteRecord>> votes_;
  std::set<std::string> reported_;
};

}  // namespace ratc::rdma
