#include "commit/monitor.h"

#include <algorithm>
#include <mutex>
#include <sstream>

namespace ratc::commit {

using tcs::Decision;

namespace {

/// Whether a filled log entry holds what `c`, also filled, describes.
template <typename Content>
bool same_content(const LogEntry& e, const Content& c) {
  return e.txn == c.txn && e.vote == c.vote && e.payload == c.payload;
}

}  // namespace

void Monitor::register_replica(const ReplicaCore* r) {
  std::lock_guard<std::mutex> lock(mu_);
  replicas_[r->id()] = r;
}

void Monitor::register_config(ShardId shard, const configsvc::ShardConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  register_config_locked(shard, config);
}

void Monitor::on_new_config(ProcessId leader, Epoch epoch,
                            const std::vector<ProcessId>& members) {
  std::lock_guard<std::mutex> lock(mu_);
  register_new_config_locked(leader, epoch, members);
}

void Monitor::register_new_config_locked(ProcessId leader, Epoch epoch,
                                         const std::vector<ProcessId>& members) {
  const ReplicaCore* r = replica_of(leader);
  if (r == nullptr) return;
  configsvc::ShardConfig cfg;
  cfg.epoch = epoch;
  cfg.members = members;
  cfg.leader = leader;
  register_config_locked(r->shard(), cfg);
}

void Monitor::register_config_locked(ShardId shard,
                                     const configsvc::ShardConfig& config) {
  auto& by_epoch = configs_[shard];
  if (!by_epoch.emplace(config.epoch, config).second) return;
  // Inv 5: a process that was skipped by a *fully accepted* epoch e (member
  // before e but not at e) must never appear in a configuration after e.
  for (const Acceptance* complete : complete_by_shard_[shard]) {
    const Acceptance& acc = *complete;
    if (acc.epoch >= config.epoch) continue;
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

const ReplicaCore* Monitor::replica_of(ProcessId pid) const {
  auto it = replicas_.find(pid);
  return it == replicas_.end() ? nullptr : it->second;
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

// --- core events --------------------------------------------------------------

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

void Monitor::check_decision(TxnId txn, Decision d) {
  // Inv 4b: one decision per transaction, across coordinators and clients.
  auto [it, inserted] = decided_.emplace(txn, d);
  if (!inserted && it->second != d) {
    report("Invariant4b", "txn" + std::to_string(txn) + " decided both " +
                              tcs::to_string(it->second) + " and " + tcs::to_string(d));
  }
}

void Monitor::on_decided(ShardId shard, Slot slot, TxnId txn, Decision d) {
  std::lock_guard<std::mutex> lock(mu_);
  // Inv 4a: one decision per slot of a shard.
  auto [it, inserted] = slot_decision_.emplace(std::make_pair(shard, slot), d);
  if (!inserted && it->second != d) {
    report("Invariant4a", "slot " + std::to_string(slot) + " of s" +
                              std::to_string(shard) + " decided both ways");
  }
  check_decision(txn, d);
}

void Monitor::on_client_decision(TxnId txn, Decision d) {
  std::lock_guard<std::mutex> lock(mu_);
  check_decision(txn, d);
}

void Monitor::on_decision_applied(const ReplicaCore& replica, Slot slot, TxnId txn,
                                  Decision d) {
  (void)txn;
  if (d != Decision::kCommit) return;
  std::lock_guard<std::mutex> lock(mu_);
  // Inv 12b: a commit decision must land on a slot whose vote was commit.
  const LogEntry* e = replica.log().find(slot);
  if (e == nullptr || !e->filled()) {
    report("Invariant12b", "commit decision for unfilled slot " + std::to_string(slot) +
                               " at " + process_name(replica.id()));
  } else if (e->vote != Decision::kCommit) {
    report("Invariant12b", "commit decision for slot " + std::to_string(slot) +
                               " with abort vote at " + process_name(replica.id()));
  }
}

void Monitor::on_slot_written(const ReplicaCore& replica, Slot slot) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Reference* ref = reference_of(replica); ref != nullptr) {
    ref->write(slot, replica.log().find(slot));
  }
  // The slot may differ from what Inv 1 found equal below a mark.
  if (auto it = verified_.find(replica.id()); it != verified_.end()) {
    for (Verified& v : it->second) v.upto = std::min(v.upto, slot - 1);
  }
}

void Monitor::on_prepare_ack(const ReplicaCore& replica, const PrepareAck& ack) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, fresh] =
      references_.try_emplace(RefKey{replica.shard(), replica.epoch(), replica.id()});
  // The leader's first PREPARE_ACK of the epoch seeds its reference; its
  // slot writes keep it current from here on.
  if (fresh) it->second.sync(replica.log());
  open_acceptance(SlotRecord::of(ack), it->second.versions.back());
}

void Monitor::on_epoch_installed(const ReplicaCore& replica) {
  std::lock_guard<std::mutex> lock(mu_);
  const ReplicaLog& log = replica.log();
  // Inv 8: new_epoch never trails the process's own epoch.
  if (replica.new_epoch() < replica.epoch()) {
    report("Invariant8", process_name(replica.id()) + " has new_epoch " +
                             std::to_string(replica.new_epoch()) + " < epoch " +
                             std::to_string(replica.epoch()));
  }
  // Inv 10: all transactions in the txn array are distinct.
  {
    std::vector<TxnId> txns;
    txns.reserve(log.size());
    for (const LogEntry& e : log.entries()) {
      if (e.filled()) txns.push_back(e.txn);
    }
    std::sort(txns.begin(), txns.end());
    for (std::size_t i = 1; i < txns.size(); ++i) {
      if (txns[i] != txns[i - 1]) continue;
      report("Invariant10", "txn" + std::to_string(txns[i]) + " occupies two slots at " +
                                process_name(replica.id()));
    }
  }
  // A follower install replaces the log: Inv 1's marks on it no longer
  // hold, and a reference at this epoch (a repeated install) takes the new
  // content.
  if (auto it = verified_.find(replica.id()); it != verified_.end()) {
    for (Verified& v : it->second) v.upto = kNoSlot;
  }
  if (Reference* ref = reference_of(replica); ref != nullptr) ref->sync(log);
  // Inv 2: every fully accepted slot of a lower epoch persists ...
  for (const Acceptance* complete : complete_by_shard_[replica.shard()]) {
    const Acceptance& acc = *complete;
    if (acc.epoch >= replica.epoch()) continue;
    const LogEntry* e = log.find(acc.slot);
    if (e == nullptr || !e->filled()) {
      report("Invariant2", "accepted slot " + std::to_string(acc.slot) + " of s" +
                               std::to_string(acc.shard) + " (epoch " +
                               std::to_string(acc.epoch) + ") missing at " +
                               process_name(replica.id()) + " in epoch " +
                               std::to_string(replica.epoch()));
    } else if (!same_content(*e, acc)) {
      report("Invariant2", "accepted slot " + std::to_string(acc.slot) + " of s" +
                               std::to_string(acc.shard) + " differs at " +
                               process_name(replica.id()));
    }
  }
  // ... and the prefix before it matches what the leader had when it
  // prepared it: once per version of each lower-epoch reference.
  for (auto it = references_.lower_bound(RefKey{replica.shard(), kNoEpoch, 0});
       it != references_.end() && std::get<0>(it->first) == replica.shard() &&
       std::get<1>(it->first) < replica.epoch();
       ++it) {
    for (const LeaderLog& saw : it->second.versions) {
      check_prefix_at_install(replica, saw, std::get<1>(it->first));
    }
  }
}

void Monitor::check_prefix_at_install(const ReplicaCore& replica, const LeaderLog& saw,
                                      Epoch ref_epoch) {
  const ReplicaLog& log = replica.log();
  for (Slot k = 1; k <= saw.complete_upto; ++k) {
    const LogEntry* mine = log.find(k);
    const SlotContent& theirs = saw.at(k);
    if (mine == nullptr || !mine->filled() || !theirs.filled || same_content(*mine, theirs)) {
      continue;
    }
    std::ostringstream os;
    os << process_name(replica.id()) << " diverges at slot " << k
       << " from the log of the epoch-" << ref_epoch << " leader of s" << replica.shard();
    report("Invariant2", os.str());
  }
}

// --- references -----------------------------------------------------------------

Monitor::Reference* Monitor::reference_of(const ReplicaCore& replica) {
  auto it = references_.find(RefKey{replica.shard(), replica.epoch(), replica.id()});
  return it == references_.end() ? nullptr : &it->second;
}

const Monitor::SlotContent& Monitor::LeaderLog::at(Slot k) const {
  static const SlotContent kHole;
  return k <= slots.size() ? slots[k - 1] : kHole;
}

void Monitor::Reference::write(Slot k, const LogEntry* e) {
  const bool filled = e != nullptr && e->filled();
  LeaderLog* current = &versions.back();
  if (k > current->slots.size()) {
    if (!filled) return;  // past the end, every slot reads as a hole
    current->slots.resize(k);
  } else {
    const SlotContent& old = current->slots[k - 1];
    if (old.filled == filled && (!filled || same_content(*e, old))) return;
    // A rewrite below the end: keep the version acceptances saw.
    if (current->seen) current = &versions.emplace_back(LeaderLog{current->slots});
  }
  current->slots[k - 1] = filled ? SlotContent{true, e->txn, e->vote, e->payload} : SlotContent{};
}

void Monitor::Reference::sync(const ReplicaLog& log) {
  const Slot end = std::max<Slot>(log.size(), versions.back().slots.size());
  for (Slot k = 1; k <= end; ++k) write(k, log.find(k));
}

// --- acceptances ----------------------------------------------------------------

void Monitor::open_acceptance(const SlotRecord& r, LeaderLog& saw) {
  AcceptKey key{r.shard, r.epoch, r.slot};
  if (acceptances_.count(key) != 0) return;
  Acceptance acc;
  acc.shard = r.shard;
  acc.epoch = r.epoch;
  acc.slot = r.slot;
  acc.txn = r.txn;
  acc.payload = *r.payload;
  acc.vote = r.vote;
  acc.saw = &saw;
  saw.seen = true;
  auto [it, _] = acceptances_.emplace(key, std::move(acc));
  maybe_complete(it->second);  // zero-follower configurations
}

void Monitor::check_replication(const SlotRecord& r) {
  // Inv 6: replication records for the same (epoch, slot) of a shard agree
  // on transaction, payload and vote.
  AcceptKey key{r.shard, r.epoch, r.slot};
  auto it = accept_sent_.find(key);
  if (it == accept_sent_.end()) {
    accept_sent_.emplace(key, std::make_tuple(r.txn, *r.payload, r.vote));
  } else {
    const auto& [t0, l0, d0] = it->second;
    if (t0 != r.txn || !(l0 == *r.payload) || d0 != r.vote) {
      report("Invariant6", "conflicting ACCEPT(e=" + std::to_string(r.epoch) +
                               ",k=" + std::to_string(r.slot) + ") at s" +
                               std::to_string(r.shard));
    }
  }
  // Inv 9: the same transaction maps to a single slot per epoch.
  auto slot_it = accept_slot_.find({r.shard, r.epoch, r.txn});
  if (slot_it == accept_slot_.end()) {
    accept_slot_.emplace(std::make_tuple(r.shard, r.epoch, r.txn), r.slot);
  } else if (slot_it->second != r.slot) {
    report("Invariant9", "txn" + std::to_string(r.txn) + " accepted at slots " +
                             std::to_string(slot_it->second) + " and " +
                             std::to_string(r.slot) + " in epoch " +
                             std::to_string(r.epoch));
  }
}

void Monitor::record_ack(ProcessId from, const AcceptKey& key, TxnId txn) {
  auto it = acceptances_.find(key);
  if (it == acceptances_.end() || it->second.txn != txn) return;
  if (const ReplicaCore* follower = replica_of(from); follower != nullptr) {
    check_follower_prefix(*follower, it->second);
  }
  it->second.acks.insert(from);
  maybe_complete(it->second);
}

void Monitor::maybe_complete(Acceptance& acc) {
  if (acc.complete) return;
  const configsvc::ShardConfig* cfg = config_of(acc.shard, acc.epoch);
  if (cfg == nullptr) return;
  for (ProcessId f : cfg->followers()) {
    if (acc.acks.count(f) == 0) return;
  }
  acc.complete = true;
  complete_by_shard_[acc.shard].push_back(&acc);
  acc.saw->complete_upto = std::max(acc.saw->complete_upto, acc.slot);
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

void Monitor::check_follower_prefix(const ReplicaCore& follower, const Acceptance& acc) {
  std::vector<Verified>& marks = verified_[follower.id()];
  auto mark = std::find_if(marks.begin(), marks.end(),
                           [&](const Verified& v) { return v.log == acc.saw; });
  if (mark == marks.end()) mark = marks.insert(marks.end(), Verified{acc.saw, kNoSlot});
  if (acc.slot <= mark->upto) return;
  // Compare slots where both sides are defined: a follower log may have
  // holes, since ACCEPTs come from coordinators and arrive unordered, and the
  // paper's ≺ relation permits them.
  for (Slot k = mark->upto + 1; k <= acc.slot; ++k) {
    const LogEntry* mine = follower.log().find(k);
    if (mine == nullptr || !mine->filled()) continue;
    const SlotContent& theirs = acc.saw->at(k);
    if (!theirs.filled || same_content(*mine, theirs)) continue;
    std::ostringstream os;
    os << process_name(follower.id()) << " diverges from the leader's log at slot " << k
       << " (accepted slot " << acc.slot << ", epoch " << acc.epoch << ")";
    report("Invariant1", os.str());
  }
  mark->upto = acc.slot;
}

// --- one-sided writes -------------------------------------------------------------

void Monitor::on_replication_write(const SlotRecord& r) {
  std::lock_guard<std::mutex> lock(mu_);
  check_replication(r);
}

void Monitor::on_replication_landed(ProcessId to, const SlotRecord& r) {
  std::lock_guard<std::mutex> lock(mu_);
  // Property (*) of Sec. 5 (Inv 13): the landing epoch equals the epoch the
  // leader prepared the transaction at.  A self-write is a synchronous local
  // store that lands at once, so this applies to every landing, remote or
  // local, without exemption.
  if (const ReplicaCore* receiver = replica_of(to); receiver != nullptr) {
    Epoch receiver_epoch = receiver->epoch();
    if (receiver_epoch != r.epoch) {
      report("Invariant13",
             "ACCEPT for txn" + std::to_string(r.txn) + " prepared at epoch " +
                 std::to_string(r.epoch) + " landed at " + process_name(to) +
                 " in epoch " + std::to_string(receiver_epoch));
    }
  }
  // The landing is the receiver NIC's acknowledgement: the paper's
  // "responded".
  record_ack(to, AcceptKey{r.shard, r.epoch, r.slot}, r.txn);
}

// --- network tap --------------------------------------------------------------------

void Monitor::observe_accept_ack(ProcessId from, const AcceptAck& aa) {
  // Inv 3: no ACCEPT_ACK below an acknowledged PROBE epoch.
  auto pit = probe_acked_.find(from);
  if (pit != probe_acked_.end() && aa.epoch < pit->second) {
    report("Invariant3", process_name(from) + " acked ACCEPT at epoch " +
                             std::to_string(aa.epoch) + " after promising epoch " +
                             std::to_string(pit->second));
  }
  record_ack(from, AcceptKey{aa.shard, aa.epoch, aa.slot}, aa.txn);
}

void Monitor::on_send(Time now, ProcessId from, ProcessId to,
                      const sim::AnyMessage& msg) {
  (void)now;
  std::lock_guard<std::mutex> lock(mu_);
  // Batched wire forms carry the same protocol steps as their scalar
  // counterparts; the monitor observes each item or the acceptance records
  // (and with them TCS-LL's inputs) silently go missing for batched runs.
  if (const auto* a = msg.as<Accept>()) {
    check_replication(SlotRecord::of(*a));
  } else if (const auto* ab = msg.as<AcceptBatch>()) {
    for (const Accept& item : ab->items) check_replication(SlotRecord::of(item));
  } else if (const auto* aa = msg.as<AcceptAck>()) {
    observe_accept_ack(from, *aa);
  } else if (const auto* aab = msg.as<AcceptAckBatch>()) {
    for (const AcceptAck& item : aab->items) observe_accept_ack(from, item);
  } else if (const auto* pr = msg.as<ProbeAck>()) {
    Epoch& e = probe_acked_[from];
    e = std::max(e, pr->epoch);
  } else if (const auto* nc = msg.as<NewConfig>()) {
    register_new_config_locked(to, nc->epoch, nc->members);
  }
}

// --- TCS-LL ---------------------------------------------------------------------------

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
