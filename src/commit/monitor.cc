#include "commit/monitor.h"

#include <mutex>
#include <set>
#include <sstream>

#include "commit/replica.h"

namespace ratc::commit {

using tcs::Decision;

void Monitor::register_replica(Replica* r) {
  std::lock_guard<std::mutex> lock(mu_);
  replicas_[r->id()] = r;
}

void Monitor::register_config(ShardId shard, const configsvc::ShardConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  register_config_locked(shard, config);
}

void Monitor::register_config_locked(ShardId shard,
                                     const configsvc::ShardConfig& config) {
  auto& by_epoch = configs_[shard];
  auto [it, inserted] = by_epoch.emplace(config.epoch, config);
  (void)it;
  if (!inserted) return;
  // Inv 5: a process that was skipped by a *fully accepted* epoch e (member
  // before e but not at e) must never appear in a configuration after e.
  for (const auto& [key, acc] : acceptances_) {
    (void)key;
    if (!acc.complete || acc.shard != shard || acc.epoch >= config.epoch) continue;
    const configsvc::ShardConfig* at_e = config_of(shard, acc.epoch);
    if (at_e == nullptr) continue;
    for (ProcessId p : config.members) {
      if (at_e->has_member(p)) continue;
      for (const auto& [e_old, cfg_old] : by_epoch) {
        if (e_old < acc.epoch && cfg_old.has_member(p)) {
          report("Invariant5",
                 process_name(p) + " skipped by accepted epoch " +
                     std::to_string(acc.epoch) + " of s" + std::to_string(shard) +
                     " rejoins at epoch " + std::to_string(config.epoch));
          break;
        }
      }
    }
  }
}

Replica* Monitor::replica_of(ProcessId pid) const {
  auto it = replicas_.find(pid);
  return it == replicas_.end() ? nullptr : it->second;
}

ShardId Monitor::shard_of(ProcessId pid) const {
  auto it = replicas_.find(pid);
  return it == replicas_.end() ? 0 : it->second->shard();
}

const configsvc::ShardConfig* Monitor::config_of(ShardId shard, Epoch epoch) const {
  auto sit = configs_.find(shard);
  if (sit == configs_.end()) return nullptr;
  auto eit = sit->second.find(epoch);
  return eit == sit->second.end() ? nullptr : &eit->second;
}

void Monitor::report(const std::string& invariant, const std::string& details) {
  // The same logical violation is often observable at many points (e.g. per
  // acceptance record); report each distinct one once.
  if (!reported_.insert(invariant + "|" + details).second) return;
  sink_.report(rt_.now(), invariant, details);
}

void Monitor::on_vote_computed(ShardId shard, Epoch epoch, Slot slot, TxnId txn,
                               Decision vote, const tcs::Payload& payload,
                               std::vector<TxnId> committed_against,
                               std::vector<TxnId> prepared_against) {
  std::lock_guard<std::mutex> lock(mu_);
  VoteRecord rec;
  rec.vote = vote;
  rec.payload = payload;
  rec.committed_against = std::move(committed_against);
  rec.prepared_against = std::move(prepared_against);
  votes_[{shard, slot, txn}][epoch] = std::move(rec);
}

void Monitor::on_local_decision(TxnId txn, Decision d) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = decided_.emplace(txn, d);
  if (!inserted && it->second != d) {
    report("Invariant4b", "txn" + std::to_string(txn) + " decided both " +
                              tcs::to_string(it->second) + " and " + tcs::to_string(d));
  }
}

void Monitor::observe_prepare_ack(ProcessId from, const PrepareAck& pa) {
  // Snapshot the leader's arrays up to the slot — the reference state for
  // Invariants 1 and 2.
  AcceptKey key{pa.shard, pa.epoch, pa.slot};
  if (acceptances_.count(key) != 0) return;
  Acceptance acc;
  acc.shard = pa.shard;
  acc.epoch = pa.epoch;
  acc.slot = pa.slot;
  acc.txn = pa.txn;
  acc.payload = pa.payload;
  acc.vote = pa.vote;
  Replica* leader = replica_of(from);
  if (leader != nullptr) {
    acc.leader_prefix.resize(pa.slot);
    for (Slot k = 1; k <= pa.slot; ++k) {
      const LogEntry* e = leader->log().find(k);
      SnapshotEntry& snap = acc.leader_prefix[k - 1];
      if (e != nullptr && e->filled()) {
        snap.filled = true;
        snap.txn = e->txn;
        snap.vote = e->vote;
        snap.payload = e->payload;
      }
    }
  }
  auto [it, _] = acceptances_.emplace(key, std::move(acc));
  maybe_complete(it->second);  // zero-follower configurations
}

void Monitor::observe_accept(const Accept& a) {
  // Inv 6: ACCEPTs for the same (epoch, slot) to a shard agree on
  // transaction, payload and vote.
  AcceptKey key{a.shard, a.epoch, a.slot};
  auto it = accept_sent_.find(key);
  if (it == accept_sent_.end()) {
    accept_sent_.emplace(key, std::make_tuple(a.txn, a.payload, a.vote));
  } else {
    const auto& [t0, l0, d0] = it->second;
    if (t0 != a.txn || !(l0 == a.payload) || d0 != a.vote) {
      report("Invariant6", "conflicting ACCEPT(e=" + std::to_string(a.epoch) +
                               ",k=" + std::to_string(a.slot) + ") at s" +
                               std::to_string(a.shard));
    }
  }
  // Inv 9: the same transaction maps to a single slot per epoch.
  auto slot_it = accept_slot_.find({a.shard, a.epoch, a.txn});
  if (slot_it == accept_slot_.end()) {
    accept_slot_.emplace(std::make_tuple(a.shard, a.epoch, a.txn), a.slot);
  } else if (slot_it->second != a.slot) {
    report("Invariant9", "txn" + std::to_string(a.txn) + " accepted at slots " +
                             std::to_string(slot_it->second) + " and " +
                             std::to_string(a.slot) + " in epoch " +
                             std::to_string(a.epoch));
  }
}

void Monitor::observe_accept_ack(ProcessId from, const AcceptAck& aa) {
  // Inv 3: no ACCEPT_ACK below an acknowledged PROBE epoch.
  auto pit = probe_acked_.find(from);
  if (pit != probe_acked_.end() && aa.epoch < pit->second) {
    report("Invariant3", process_name(from) + " acked ACCEPT at epoch " +
                             std::to_string(aa.epoch) + " after promising epoch " +
                             std::to_string(pit->second));
  }
  AcceptKey key{aa.shard, aa.epoch, aa.slot};
  auto it = acceptances_.find(key);
  if (it != acceptances_.end() && it->second.txn == aa.txn) {
    // Inv 1: the follower's prefix matches the leader snapshot.
    Replica* follower = replica_of(from);
    if (follower != nullptr) {
      check_prefix_against_leader(*follower, it->second, "Invariant1");
    }
    it->second.acks.insert(from);
    maybe_complete(it->second);
  }
}

void Monitor::on_send(Time now, ProcessId from, ProcessId to,
                      const sim::AnyMessage& msg) {
  (void)now;
  std::lock_guard<std::mutex> lock(mu_);
  // Batched wire forms carry the same protocol steps as their scalar
  // counterparts; the monitor observes each item or the acceptance records
  // (and with them TCS-LL's inputs) silently go missing for batched runs.
  if (const auto* pa = msg.as<PrepareAck>()) {
    observe_prepare_ack(from, *pa);
  } else if (const auto* pab = msg.as<PrepareAckBatch>()) {
    for (const PrepareAck& item : pab->items) observe_prepare_ack(from, item);
  } else if (const auto* a = msg.as<Accept>()) {
    observe_accept(*a);
  } else if (const auto* ab = msg.as<AcceptBatch>()) {
    for (const Accept& item : ab->items) observe_accept(item);
  } else if (const auto* aa = msg.as<AcceptAck>()) {
    observe_accept_ack(from, *aa);
  } else if (const auto* aab = msg.as<AcceptAckBatch>()) {
    for (const AcceptAck& item : aab->items) observe_accept_ack(from, item);
  } else if (const auto* pr = msg.as<ProbeAck>()) {
    Epoch& e = probe_acked_[from];
    e = std::max(e, pr->epoch);
  } else if (const auto* nc = msg.as<NewConfig>()) {
    // The recipient is the new leader of its shard.
    configsvc::ShardConfig cfg;
    cfg.epoch = nc->epoch;
    cfg.members = nc->members;
    cfg.leader = to;
    register_config_locked(shard_of(to), cfg);
  } else if (const auto* d = msg.as<DecisionMsg>()) {
    // Inv 4a: one decision per slot of a shard.
    auto [it, inserted] = slot_decision_.emplace(std::make_pair(d->shard, d->slot),
                                                 d->decision);
    if (!inserted && it->second != d->decision) {
      report("Invariant4a", "slot " + std::to_string(d->slot) + " of s" +
                                std::to_string(d->shard) + " decided both ways");
    }
    auto [dit, dinserted] = decided_.emplace(d->txn, d->decision);
    if (!dinserted && dit->second != d->decision) {
      report("Invariant4b", "txn" + std::to_string(d->txn) + " decided both " +
                                tcs::to_string(dit->second) + " and " +
                                tcs::to_string(d->decision));
    }
  } else if (const auto* cd = msg.as<ClientDecision>()) {
    // Inv 4b at the client boundary.
    auto [it, inserted] = decided_.emplace(cd->txn, cd->decision);
    if (!inserted && it->second != cd->decision) {
      report("Invariant4b", "txn" + std::to_string(cd->txn) + " externalized both " +
                                tcs::to_string(it->second) + " and " +
                                tcs::to_string(cd->decision));
    }
  }
}

void Monitor::on_deliver(Time now, ProcessId from, ProcessId to,
                         const sim::AnyMessage& msg) {
  (void)now;
  (void)from;
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto* d = msg.as<DecisionMsg>()) {
    // Inv 12b: a commit decision must land on a slot whose vote was commit.
    Replica* r = replica_of(to);
    if (r == nullptr || d->decision != Decision::kCommit) return;
    // Mirror the handler's own precondition (line 31): ignore deliveries the
    // replica will ignore.
    if (r->status() == Status::kReconfiguring || r->epoch() < d->epoch) return;
    const LogEntry* e = r->log().find(d->slot);
    if (e == nullptr || !e->filled()) {
      report("Invariant12b", "commit decision for unfilled slot " +
                                 std::to_string(d->slot) + " at " + process_name(to));
    } else if (e->vote != Decision::kCommit) {
      report("Invariant12b", "commit decision for slot " + std::to_string(d->slot) +
                                 " with abort vote at " + process_name(to));
    }
  }
}

void Monitor::maybe_complete(Acceptance& acc) {
  if (acc.complete) return;
  const configsvc::ShardConfig* cfg = config_of(acc.shard, acc.epoch);
  if (cfg == nullptr) return;
  for (ProcessId f : cfg->followers()) {
    if (acc.acks.count(f) == 0) return;
  }
  acc.complete = true;
  // Inv 11b: one (slot, payload, vote) per accepted transaction per shard.
  auto key = std::make_pair(acc.shard, acc.txn);
  auto it = accepted_txn_.find(key);
  if (it == accepted_txn_.end()) {
    accepted_txn_.emplace(key, AcceptKey{acc.shard, acc.epoch, acc.slot});
  } else {
    const Acceptance& first = acceptances_.at(it->second);
    if (first.slot != acc.slot || !(first.payload == acc.payload) ||
        first.vote != acc.vote) {
      report("Invariant11b", "txn" + std::to_string(acc.txn) +
                                 " accepted differently at epochs " +
                                 std::to_string(first.epoch) + " and " +
                                 std::to_string(acc.epoch));
    }
  }
  // Inv 11a: one (txn, payload, vote) per accepted slot per shard.
  auto& same_slot = complete_by_slot_[{acc.shard, acc.slot}];
  for (const AcceptKey& k : same_slot) {
    const Acceptance& other = acceptances_.at(k);
    if (other.epoch == acc.epoch) continue;
    if (other.txn != acc.txn || !(other.payload == acc.payload) ||
        other.vote != acc.vote) {
      report("Invariant11a", "slot " + std::to_string(acc.slot) + " of s" +
                                 std::to_string(acc.shard) +
                                 " accepted different transactions across epochs");
    }
  }
  same_slot.push_back(AcceptKey{acc.shard, acc.epoch, acc.slot});
}

void Monitor::check_prefix_against_leader(const ReplicaCore& replica,
                                          const Acceptance& acc,
                                          const char* invariant) {
  // Compare slots where both sides are defined: a follower log may have
  // holes, since ACCEPTs come from coordinators and arrive unordered, and the
  // paper's ≺ relation permits them.  The accepted slot itself must be
  // present and equal when checking Inv 2 after an epoch installation.
  for (Slot k = 1; k <= acc.slot; ++k) {
    const SnapshotEntry& snap = acc.leader_prefix.size() >= k
                                    ? acc.leader_prefix[k - 1]
                                    : SnapshotEntry{};
    const LogEntry* mine = replica.log().find(k);
    bool mine_filled = mine != nullptr && mine->filled();
    if (!mine_filled || !snap.filled) continue;
    if (mine->txn != snap.txn || !(mine->payload == snap.payload) ||
        mine->vote != snap.vote) {
      std::ostringstream os;
      os << process_name(replica.id()) << " diverges from leader snapshot at slot "
         << k << " (accepted slot " << acc.slot << ", epoch " << acc.epoch << ")";
      report(invariant, os.str());
    }
  }
}

void Monitor::on_epoch_installed(const ReplicaCore& replica) {
  std::lock_guard<std::mutex> lock(mu_);
  // Inv 8: new_epoch never trails the process's own epoch.
  if (replica.new_epoch() < replica.epoch()) {
    report("Invariant8", process_name(replica.id()) + " has new_epoch " +
                             std::to_string(replica.new_epoch()) + " < epoch " +
                             std::to_string(replica.epoch()));
  }
  // Inv 10: all transactions in the txn array are distinct.
  {
    std::set<TxnId> seen;
    for (Slot k = 1; k <= replica.log().size(); ++k) {
      const LogEntry* e = replica.log().find(k);
      if (e == nullptr || !e->filled()) continue;
      if (!seen.insert(e->txn).second) {
        report("Invariant10", "txn" + std::to_string(e->txn) + " occupies two slots at " +
                                  process_name(replica.id()));
      }
    }
  }
  // Inv 2: every fully accepted slot of a lower epoch persists, and the
  // prefix before it matches what the leader had when it prepared it.
  for (auto& [key, acc] : acceptances_) {
    (void)key;
    if (!acc.complete || acc.shard != replica.shard()) continue;
    if (acc.epoch >= replica.epoch()) continue;
    const LogEntry* e = replica.log().find(acc.slot);
    if (e == nullptr || !e->filled()) {
      report("Invariant2", "accepted slot " + std::to_string(acc.slot) + " of s" +
                               std::to_string(acc.shard) + " (epoch " +
                               std::to_string(acc.epoch) + ") missing at " +
                               process_name(replica.id()) + " in epoch " +
                               std::to_string(replica.epoch()));
      continue;
    }
    if (e->txn != acc.txn || !(e->payload == acc.payload) || e->vote != acc.vote) {
      report("Invariant2", "accepted slot " + std::to_string(acc.slot) + " of s" +
                               std::to_string(acc.shard) + " differs at " +
                               process_name(replica.id()));
      continue;
    }
    check_prefix_against_leader(replica, acc, "Invariant2");
  }
}

checker::TcsLLInput Monitor::tcsll_input(const tcs::History& history,
                                         const tcs::ShardMap& shard_map,
                                         const tcs::Certifier& certifier) const {
  std::lock_guard<std::mutex> lock(mu_);
  checker::TcsLLInput input;
  input.history = &history;
  input.shard_map = &shard_map;
  input.certifier = &certifier;
  input.decided = decided_;

  // Joins an acceptance with the vote computation that produced it (the
  // latest computation at an epoch ≤ the acceptance epoch).
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

  // One record per (txn, shard): the first complete acceptance.
  for (const auto& [key, acc_key] : accepted_txn_) {
    (void)key;
    const Acceptance& acc = acceptances_.at(acc_key);
    input.records.emplace(std::make_pair(acc.txn, acc.shard), to_record(acc));
  }
  // Plus every complete acceptance as its own (txn, shard, epoch)
  // incarnation, for the checker's per-incarnation witness resolution in
  // constraint (11).
  for (const auto& [key, acc] : acceptances_) {
    (void)key;
    if (!acc.complete) continue;
    input.incarnations.emplace(std::make_tuple(acc.txn, acc.shard, acc.epoch),
                               to_record(acc));
  }
  return input;
}

}  // namespace ratc::commit
