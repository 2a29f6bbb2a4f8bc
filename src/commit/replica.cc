#include "commit/replica.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "commit/monitor.h"
#include "common/log.h"

namespace ratc::commit {

using tcs::Decision;

Replica::Replica(rt::Runtime& rt, ProcessId id, Options options)
    : Process(rt, id, "r" + std::to_string(id) + "/s" + std::to_string(options.shard)),
      options_(std::move(options)),
      cs_(rt, id, options_.cs_endpoints),
      fd_responder_(rt, id),
      monitor_(options_.monitor),
      engine_(rt, id, *this,
              {.target_shard_size = options_.target_shard_size,
               .probe_patience = options_.probe_patience,
               .policy = options_.placement_policy}),
      store_(options_.snapshot_history_depth) {
  assert(options_.shard_map != nullptr && options_.certifier != nullptr);
}

Replica::Replica(sim::Simulator& sim, sim::Network& net, ProcessId id,
                 Options options)
    : Replica(net.runtime(), id, std::move(options)) {
  (void)sim;
}

const configsvc::ShardConfig& Replica::view(ShardId s) const {
  static const configsvc::ShardConfig kInvalid;
  auto it = views_.find(s);
  return it == views_.end() ? kInvalid : it->second;
}

void Replica::bootstrap(Status status,
                        const std::map<ShardId, configsvc::ShardConfig>& all_views) {
  views_ = all_views;
  status_ = status;
  initialized_ = true;
  new_epoch_ = view(options_.shard).epoch;
  arm_retry_timer();
}

void Replica::bootstrap_spare(
    const std::map<ShardId, configsvc::ShardConfig>& all_views) {
  views_ = all_views;
  status_ = Status::kReconfiguring;  // inert until it receives NEW_STATE
  initialized_ = false;
  new_epoch_ = kNoEpoch;
  // A spare's view of its own shard must not claim membership.
  arm_retry_timer();
}

// --- certification ----------------------------------------------------------

void Replica::certify_local(TxnId txn, const tcs::Payload& payload,
                            std::function<void(tcs::Decision, Time)> cb,
                            ProcessId origin) {
  TxnMeta meta;
  meta.txn = txn;
  meta.participants = options_.shard_map->shards_of(payload);
  // The co-located client's id rides in the meta so a successor coordinator
  // (retry path, line 70) can still deliver the decision after this replica
  // crashed — the live coordinator itself always uses the local callback.
  meta.client = origin;
  start_certification(std::move(meta), &payload, std::move(cb));
}

void Replica::start_certification(TxnMeta meta, const tcs::Payload* full_payload,
                                  std::function<void(tcs::Decision, Time)> local_cb) {
  TxnId txn = meta.txn;
  // Transactions touching no shard (empty payloads) commit trivially.
  if (meta.participants.empty()) {
    if (local_cb) {
      if (monitor_) monitor_->on_local_decision(txn, Decision::kCommit);
      local_cb(Decision::kCommit, 0);
    } else if (meta.client != kNoProcess) {
      rt().send_msg(id(), meta.client, ClientDecision{txn, Decision::kCommit});
    }
    return;
  }
  CoordState& c = coord_[txn];
  if (c.decided) return;  // late retry of an already-decided coordination
  undecided_coords_.insert(txn);
  c.meta = meta;
  if (local_cb) c.local_cb = std::move(local_cb);
  c.last_driven = rt().now();
  // Line 2-3: send PREPARE with the shard projection to each leader.
  for (ShardId s : meta.participants) {
    Prepare p;
    p.txn = txn;
    if (full_payload != nullptr) {
      p.has_payload = true;
      p.payload = options_.shard_map->project(*full_payload, s);
      c.shard_payloads[s] = p.payload;
    } else {
      p.has_payload = false;  // ⊥: retry path (line 73)
    }
    p.meta = meta;
    rt().send_msg(id(), view(s).leader, p);
  }
}

void Replica::certify_batch_local(
    const std::vector<std::pair<TxnId, tcs::Payload>>& batch,
    std::function<void(TxnId, tcs::Decision, Time)> cb, ProcessId origin) {
  if (batch.size() == 1) {
    TxnId txn = batch.front().first;
    certify_local(
        txn, batch.front().second,
        [cb, txn](Decision d, Time csn_ts) { cb(txn, d, csn_ts); }, origin);
    return;
  }
  // Same per-transaction coordinator state as start_certification, but the
  // PREPAREs of the whole batch are grouped into one message per shard
  // leader (and one run of consecutive log appends there).
  std::map<ShardId, PrepareBatch> per_shard;
  for (const auto& [txn, payload] : batch) {
    TxnMeta meta;
    meta.txn = txn;
    meta.participants = options_.shard_map->shards_of(payload);
    // As in certify_local: carrying the origin client lets a successor
    // coordinator finish *each batch item independently* after a crash —
    // without it, decisions recovered by the line-70 retry path had nowhere
    // to go for locally-submitted batches and the whole batch's outcomes
    // were lost with the coordinator.
    meta.client = origin;
    if (meta.participants.empty()) {
      if (monitor_) monitor_->on_local_decision(txn, Decision::kCommit);
      cb(txn, Decision::kCommit, 0);
      continue;
    }
    CoordState& c = coord_[txn];
    if (c.decided) continue;
    undecided_coords_.insert(txn);
    c.meta = meta;
    c.local_cb = [cb, txn](Decision d, Time csn_ts) { cb(txn, d, csn_ts); };
    c.last_driven = rt().now();
    for (ShardId s : meta.participants) {
      Prepare p;
      p.txn = txn;
      p.has_payload = true;
      p.payload = options_.shard_map->project(payload, s);
      c.shard_payloads[s] = p.payload;
      p.meta = meta;
      per_shard[s].items.push_back(std::move(p));
    }
  }
  for (auto& [s, pb] : per_shard) {
    if (pb.items.size() == 1) {
      // A lone prepare keeps the scalar vocabulary (and the scalar trace).
      rt().send_msg(id(), view(s).leader, std::move(pb.items.front()));
    } else {
      rt().send_msg(id(), view(s).leader, std::move(pb));
    }
  }
}

void Replica::certify_batch_remote(ProcessId client,
                                   const std::vector<CertifyRequest>& items) {
  // Mirrors certify_batch_local, with decisions routed back to the remote
  // client (meta.client) instead of a local callback.
  std::map<ShardId, PrepareBatch> per_shard;
  for (const CertifyRequest& item : items) {
    TxnMeta meta;
    meta.txn = item.txn;
    meta.participants = options_.shard_map->shards_of(item.payload);
    meta.client = client;
    if (meta.participants.empty()) {
      rt().send_msg(id(), client, ClientDecision{item.txn, Decision::kCommit});
      continue;
    }
    CoordState& c = coord_[item.txn];
    if (c.decided) continue;
    undecided_coords_.insert(item.txn);
    c.meta = meta;
    c.last_driven = rt().now();
    for (ShardId s : meta.participants) {
      Prepare p;
      p.txn = item.txn;
      p.has_payload = true;
      p.payload = options_.shard_map->project(item.payload, s);
      c.shard_payloads[s] = p.payload;
      p.meta = meta;
      per_shard[s].items.push_back(std::move(p));
    }
  }
  for (auto& [s, pb] : per_shard) {
    if (pb.items.size() == 1) {
      rt().send_msg(id(), view(s).leader, std::move(pb.items.front()));
    } else {
      rt().send_msg(id(), view(s).leader, std::move(pb));
    }
  }
}

void Replica::redrive_coordinations(const std::set<TxnId>& driven_this_tick) {
  // A PREPARE sent to a leader that crashed before certifying leaves no
  // prepared witness anywhere, so the line-70 retry path can never find it:
  // without this re-drive the transaction stays undecided forever (the
  // availability hole the autonomous-reconfiguration sweeps exposed).  The
  // coordinator still holds the projections, so it re-sends the PREPAREs to
  // the *current* leaders; leaders that already certified the transaction
  // just re-send their stored result (lines 6-7), making this idempotent.
  // Each coordination is re-driven independently with its *own* per-shard
  // projections — transactions that arrived in one client batch share no
  // fate here, so one item's lost PREPARE never stalls its batch-mates.
  (void)driven_this_tick;  // only read by the assert below
  Time now = rt().now();
  for (TxnId txn : undecided_coords_) {
    CoordState& c = coord_.at(txn);
    if (now - c.last_driven < options_.retry_timeout) continue;
    // A transaction the slot-retry pass just re-drove has last_driven == now
    // and was skipped above; this pins that no coordination is driven twice
    // within one timer tick.
    assert(driven_this_tick.count(txn) == 0 &&
           "coordination re-driven twice in one retry tick");
    c.last_driven = now;
    for (ShardId s : c.meta.participants) {
      Prepare p;
      p.txn = txn;
      auto it = c.shard_payloads.find(s);
      if (it != c.shard_payloads.end()) {
        p.has_payload = true;
        p.payload = it->second;
      } else {
        p.has_payload = false;
      }
      p.meta = c.meta;
      rt().send_msg(id(), view(s).leader, p);
    }
  }
}

void Replica::retry(Slot k) {
  const LogEntry* e = log_.find(k);
  // Line 71 pre: phase[k] = prepared.
  if (e == nullptr || e->phase != Phase::kPrepared) return;
  TxnMeta meta = e->meta;
  RATC_DEBUG(name() << " retries txn" << meta.txn);
  // Lines 72-73: PREPARE(txn[k], ⊥) to the leaders of shards(txn[k]); this
  // replica becomes an additional coordinator for the transaction.
  start_certification(std::move(meta), nullptr, nullptr);
}

void Replica::handle_prepare(ProcessId from, const Prepare& m) {
  // Line 5 pre: status = leader.
  if (status_ != Status::kLeader) return;
  prepare_and_ack(from, m);
}

PrepareAck Replica::prepare_txn(const Prepare& m) {
  Slot existing = log_.slot_of(m.txn);
  PrepareAck ack;
  ack.epoch = view(options_.shard).epoch;
  ack.shard = options_.shard;
  ack.txn = m.txn;
  if (existing != kNoSlot) {
    // Lines 6-7: already certified; re-send the stored result.
    const LogEntry& e = *log_.find(existing);
    ack.slot = existing;
    ack.payload = e.payload;
    ack.vote = e.vote;
    ack.meta = e.meta;
    ack.prepare_ts = e.prepare_ts;
  } else {
    // Lines 9-17: append to the certification order and vote.
    next_ += 1;
    LogEntry& e = log_.at(next_);
    e.txn = m.txn;
    e.phase = Phase::kPrepared;
    e.meta = m.meta;
    // The CSN-log stamp: final for the slot's life, replayed verbatim by the
    // stored-result path above so csn(t) is stable across prepare retries.
    e.prepare_ts = rt().now();
    if (m.has_payload) {
      e.payload = m.payload;     // line 13
      e.vote = compute_vote(next_, m.payload);  // line 12
    } else {
      e.vote = Decision::kAbort;     // line 15
      e.payload = tcs::empty_payload();  // line 16
      if (monitor_ || options_.check_certifier_index) {
        // Report the same witness sets a real vote computation would use:
        // constraint (10) of Fig. 6 pins T_s exactly even for abort votes.
        // The vote itself is line 15's protocol constant, not an index
        // computation, so only the sets are cross-checked against the flat
        // scan (the flat vote over the empty payload trivially commits).
        WitnessIndex::Witnesses w = index_.collect(log_, next_);
        check_index_sets_against_flat(next_, w);
        if (monitor_) {
          monitor_->on_vote_computed(options_.shard, view(options_.shard).epoch,
                                     next_, m.txn, e.vote, e.payload,
                                     std::move(w.committed),
                                     std::move(w.prepared));
        }
      }
    }
    prepared_at_[next_] = rt().now();
    // The slot's vote and payload are final for its prepared life: index it
    // (no-op for abort votes, which never enter L2).
    index_.on_prepared(log_, next_);
    ack.slot = next_;
    ack.payload = e.payload;
    ack.vote = e.vote;
    ack.meta = e.meta;
    ack.prepare_ts = e.prepare_ts;
  }
  return ack;
}

static Accept make_accept(const PrepareAck& ack, ProcessId coordinator) {
  Accept acc;
  acc.epoch = ack.epoch;
  acc.shard = ack.shard;
  acc.slot = ack.slot;
  acc.txn = ack.txn;
  acc.payload = ack.payload;
  acc.vote = ack.vote;
  acc.meta = ack.meta;
  acc.coordinator = coordinator;
  acc.prepare_ts = ack.prepare_ts;
  return acc;
}

void Replica::prepare_and_ack(ProcessId coordinator, const Prepare& m) {
  PrepareAck ack = prepare_txn(m);
  rt().send_msg(id(), coordinator, ack);
  if (options_.leader_ships_accepts) {
    // Ablation: leader-driven replication — the leader fans the ACCEPT out
    // itself; followers acknowledge to the coordinator.
    Accept acc = make_accept(ack, coordinator);
    for (ProcessId f : view(options_.shard).followers()) {
      rt().send_msg(id(), f, acc);
    }
  }
}

void Replica::handle_prepare_batch(ProcessId from, const PrepareBatch& m) {
  if (status_ != Status::kLeader) return;  // line 5 pre, once for the batch
  PrepareAckBatch acks;
  acks.items.reserve(m.items.size());
  std::map<ProcessId, AcceptBatch> ship;  // leader-driven ablation only
  for (const Prepare& p : m.items) {
    PrepareAck ack = prepare_txn(p);
    if (options_.leader_ships_accepts) {
      Accept acc = make_accept(ack, from);
      for (ProcessId f : view(options_.shard).followers()) {
        ship[f].items.push_back(acc);
      }
    }
    acks.items.push_back(std::move(ack));
  }
  rt().send_msg(id(), from, std::move(acks));
  for (auto& [f, batch] : ship) rt().send_msg(id(), f, std::move(batch));
}

Replica::Witnesses Replica::collect_witnesses(Slot slot) const {
  // The L1/L2 definitions below Fig. 1:
  //   L1 = payloads of decided-commit slots before this one,
  //   L2 = payloads of prepared slots with commit votes before this one.
  Witnesses w;
  for (Slot k = 1; k < slot; ++k) {
    const LogEntry* e = log_.find(k);
    if (e == nullptr || !e->filled()) continue;
    if (e->phase == Phase::kDecided && e->dec == Decision::kCommit) {
      w.l1.push_back(&e->payload);
      w.committed.push_back(e->txn);
    } else if (e->phase == Phase::kPrepared && e->vote == Decision::kCommit) {
      w.l2.push_back(&e->payload);
      w.prepared.push_back(e->txn);
    }
  }
  return w;
}

void Replica::check_index_against_flat(Slot slot, tcs::Decision indexed_vote,
                                       const tcs::Payload& l,
                                       const WitnessIndex::Witnesses& w) const {
  if (!options_.check_certifier_index) return;
  // Deliberately not assert(): the cross-check must fire in RelWithDebInfo
  // sweeps too, not only in -UNDEBUG builds.
  Witnesses flat = collect_witnesses(slot);
  Decision flat_vote = options_.certifier->vote(flat.l1, flat.l2, l);
  if (indexed_vote != flat_vote) {
    RATC_ERROR(name() << " witness index vote diverged at slot " << slot << ": indexed="
                      << tcs::to_string(indexed_vote) << " flat=" << tcs::to_string(flat_vote));
    std::abort();
  }
  check_index_sets_against_flat(slot, w);
}

void Replica::check_index_sets_against_flat(
    Slot slot, const WitnessIndex::Witnesses& w) const {
  if (!options_.check_certifier_index) return;
  Witnesses flat = collect_witnesses(slot);
  if (flat.committed != w.committed || flat.prepared != w.prepared) {
    RATC_ERROR(name() << " witness index T_s/P_s sets diverged at slot " << slot);
    std::abort();
  }
}

tcs::Decision Replica::compute_vote(Slot slot, const tcs::Payload& l) {
  // Line 12: vote = f_s(L1, l) ⊓ g_s(L2, l), through the witness index — a
  // vote touches only payloads sharing an object with l instead of the whole
  // log.  The voting slot itself is not indexed yet (on_prepared runs after
  // the vote lands in the entry), so the index covers exactly slots < slot.
  Decision vote = index_.vote(*options_.certifier, log_, l);
  WitnessIndex::Witnesses w;
  if (monitor_ || options_.check_certifier_index) w = index_.collect(log_, slot);
  check_index_against_flat(slot, vote, l, w);
  if (monitor_) {
    monitor_->on_vote_computed(options_.shard, view(options_.shard).epoch, slot,
                               log_.find(slot)->txn, vote, l, std::move(w.committed),
                               std::move(w.prepared));
  }
  return vote;
}

bool Replica::note_prepare_ack(const PrepareAck& m, Accept* accept) {
  // Line 19 pre: epoch[s] = e (the coordinator's view matches the ack).
  if (view(m.shard).epoch != m.epoch) return false;
  auto it = coord_.find(m.txn);
  if (it == coord_.end() || it->second.decided) return false;
  CoordState& c = it->second;
  ShardProgress& pr = c.progress[m.shard];
  if (pr.have_prepare_ack && pr.epoch == m.epoch && pr.slot == m.slot) {
    // Duplicate: keep existing follower acks, just re-replicate below.
  } else {
    pr.have_prepare_ack = true;
    pr.epoch = m.epoch;
    pr.slot = m.slot;
    pr.vote = m.vote;
    pr.prepare_ts = m.prepare_ts;
    pr.follower_acks.clear();
  }
  accept->epoch = m.epoch;
  accept->shard = m.shard;
  accept->slot = m.slot;
  accept->txn = m.txn;
  accept->payload = m.payload;
  accept->vote = m.vote;
  accept->meta = m.meta;
  accept->prepare_ts = m.prepare_ts;
  return true;
}

void Replica::handle_prepare_ack(ProcessId from, const PrepareAck& m) {
  (void)from;
  Accept acc;
  if (!note_prepare_ack(m, &acc)) return;
  // Line 20: delegate replication to the coordinator — ship the leader's
  // result to the followers.  (Suppressed in the leader-driven ablation,
  // where the leader already fanned the ACCEPT out.)
  if (!options_.leader_ships_accepts) {
    for (ProcessId f : view(m.shard).followers()) {
      rt().send_msg(id(), f, acc);
    }
  }
  check_coordination(m.txn);  // zero-follower shards complete immediately
}

void Replica::handle_prepare_ack_batch(ProcessId from, const PrepareAckBatch& m) {
  (void)from;
  // One AcceptBatch per follower carries the whole batch's replication
  // writes; the items all come from one leader, so the follower sets agree.
  std::map<ProcessId, AcceptBatch> ship;
  for (const PrepareAck& item : m.items) {
    Accept acc;
    if (!note_prepare_ack(item, &acc)) continue;
    if (!options_.leader_ships_accepts) {
      for (ProcessId f : view(item.shard).followers()) {
        ship[f].items.push_back(acc);
      }
    }
    check_coordination(item.txn);  // zero-follower shards complete immediately
  }
  for (auto& [f, batch] : ship) {
    if (batch.items.size() == 1) {
      rt().send_msg(id(), f, std::move(batch.items.front()));
    } else {
      rt().send_msg(id(), f, std::move(batch));
    }
  }
}

bool Replica::apply_accept(ProcessId from, const Accept& m, AcceptAck* ack,
                           ProcessId* coordinator) {
  // Line 22 pre: status = follower ∧ epoch[s0] = e.  This guard is what the
  // RDMA variant loses (Sec. 5) — see rdma/replica.cc.
  if (status_ != Status::kFollower) return false;
  if (view(options_.shard).epoch != m.epoch) return false;
  LogEntry& e = log_.at(m.slot);
  if (e.phase == Phase::kStart) {
    // Line 24 (the paper writes `next`; the intended index is k).
    e.txn = m.txn;
    e.payload = m.payload;
    e.vote = m.vote;
    e.phase = Phase::kPrepared;
    e.meta = m.meta;
    e.prepare_ts = m.prepare_ts;  // the leader's CSN stamp, replicated
    prepared_at_[m.slot] = rt().now();
    index_.on_prepared(log_, m.slot);
  }
  // Line 25: acknowledge to the coordinator (which in the leader-driven
  // ablation is not the sender).
  *coordinator = m.coordinator != kNoProcess ? m.coordinator : from;
  *ack = AcceptAck{options_.shard, m.epoch, m.slot, m.txn, m.vote};
  return true;
}

void Replica::handle_accept(ProcessId from, const Accept& m) {
  AcceptAck ack;
  ProcessId coordinator = kNoProcess;
  if (!apply_accept(from, m, &ack, &coordinator)) return;
  rt().send_msg(id(), coordinator, ack);
}

void Replica::handle_accept_batch(ProcessId from, const AcceptBatch& m) {
  std::map<ProcessId, AcceptAckBatch> replies;
  for (const Accept& item : m.items) {
    AcceptAck ack;
    ProcessId coordinator = kNoProcess;
    if (!apply_accept(from, item, &ack, &coordinator)) continue;
    replies[coordinator].items.push_back(ack);
  }
  for (auto& [coordinator, batch] : replies) {
    if (batch.items.size() == 1) {
      rt().send_msg(id(), coordinator, std::move(batch.items.front()));
    } else {
      rt().send_msg(id(), coordinator, std::move(batch));
    }
  }
}

void Replica::handle_accept_ack_batch(ProcessId from, const AcceptAckBatch& m) {
  for (const AcceptAck& item : m.items) handle_accept_ack(from, item);
}

void Replica::handle_accept_ack(ProcessId from, const AcceptAck& m) {
  auto it = coord_.find(m.txn);
  if (it == coord_.end() || it->second.decided) return;
  CoordState& c = it->second;
  auto pit = c.progress.find(m.shard);
  if (pit == c.progress.end()) return;
  ShardProgress& pr = pit->second;
  // Only acks matching the epoch/slot we replicated count (line 26 requires
  // acks at epoch[s]).
  if (!pr.have_prepare_ack || pr.epoch != m.epoch || pr.slot != m.slot) return;
  pr.follower_acks.insert(from);
  check_coordination(m.txn);
}

void Replica::check_coordination(TxnId txn) {
  auto it = coord_.find(txn);
  if (it == coord_.end() || it->second.decided) return;
  CoordState& c = it->second;
  // Line 26: ACCEPT_ACKs from every follower of every involved shard, at
  // the coordinator's current epoch for that shard.
  Decision decision = Decision::kCommit;
  Time csn_ts = 0;  // csn(t).ts = max prepare stamp over the involved shards
  for (ShardId s : c.meta.participants) {
    auto pit = c.progress.find(s);
    if (pit == c.progress.end()) return;
    const ShardProgress& pr = pit->second;
    const configsvc::ShardConfig& v = view(s);
    if (!pr.have_prepare_ack || pr.epoch != v.epoch) return;
    for (ProcessId f : v.followers()) {
      if (pr.follower_acks.count(f) == 0) return;
    }
    decision = meet(decision, pr.vote);  // line 27's ⊓ fold
    csn_ts = std::max(csn_ts, pr.prepare_ts);
  }
  if (decision != Decision::kCommit) csn_ts = 0;  // aborts never enter the CSN log
  c.decided = true;  // guards re-entrancy from the client callback below
  // Line 27: report the decision to the client.
  if (c.local_cb) {
    if (monitor_) monitor_->on_local_decision(txn, decision);
    c.local_cb(decision, csn_ts);
  } else if (c.meta.client != kNoProcess) {
    rt().send_msg(id(), c.meta.client, ClientDecision{txn, decision, csn_ts});
  }
  // Lines 28-29: persist the decision at every member of each shard.
  for (ShardId s : c.meta.participants) {
    const ShardProgress& pr = c.progress.at(s);
    const configsvc::ShardConfig& v = view(s);
    for (ProcessId p : v.members) {
      rt().send_msg(id(), p, DecisionMsg{v.epoch, s, pr.slot, txn, decision, csn_ts});
    }
  }
  // The coordination is complete: shed the heavy state but keep the entry
  // as a decided tombstone — a late retry() of a still-prepared slot would
  // otherwise recreate the coordination from scratch and re-decide.
  c.progress.clear();
  c.shard_payloads.clear();
  c.local_cb = nullptr;
  undecided_coords_.erase(txn);
}

void Replica::handle_decision(ProcessId from, const DecisionMsg& m) {
  (void)from;
  // Line 31 pre: status ∈ {leader, follower} ∧ epoch[s0] ≥ e.
  if (status_ == Status::kReconfiguring) return;
  if (view(options_.shard).epoch < m.epoch) return;
  // Line 32.
  LogEntry& e = log_.at(m.slot);
  if (e.phase == Phase::kStart) e.txn = m.txn;  // decision for a hole (abort only)
  e.dec = m.decision;
  e.phase = Phase::kDecided;
  e.csn_ts = m.csn_ts;
  prepared_at_.erase(m.slot);
  index_.on_decided(log_, m.slot);
  // Advance the committed multi-version state.  A commit decision can only
  // land on a filled slot (line 26 required this replica's own ACCEPT_ACK),
  // so the payload is present; duplicate decisions re-apply the same csn,
  // which the store skips.
  if (m.decision == Decision::kCommit) {
    store_.apply_at(e.payload, tcs::Csn{m.csn_ts, m.txn});
  }
}

// --- reconfiguration ----------------------------------------------------------

void Replica::reconfigure(ShardId s) {
  // The attempt lifecycle — probe/descend epoch search, placement, CAS with
  // loser spare-release — is the shared reconfigurer core (recon::Engine);
  // this replica only supplies the StackHooks below.  start() refuses while
  // an attempt is in flight (line 34's probing guard).
  engine_.start({s});
}

void Replica::handle_probe(ProcessId from, const Probe& m) {
  // Line 41 pre: e ≥ new_epoch.
  if (m.epoch < new_epoch_) return;
  // Lines 42-44: stop processing transactions and acknowledge.
  status_ = Status::kReconfiguring;
  new_epoch_ = m.epoch;
  rt().send_msg(id(), from, ProbeAck{initialized_, m.epoch, options_.shard});
}

// --- recon::StackHooks --------------------------------------------------------

void Replica::fetch_latest(const std::vector<ShardId>& shards,
                           std::function<void(bool, recon::Snapshot)> cb) {
  ShardId s = shards.front();  // per-shard reconfiguration: one shard
  cs_.get_last(s, [s, cb](const configsvc::ShardConfig& cfg) {
    if (!cfg.valid()) {  // nothing stored: cannot reconfigure an unborn shard
      cb(false, {});
      return;
    }
    recon::Snapshot snap;
    snap.epoch = cfg.epoch;
    snap.members[s] = cfg.members;
    cb(true, snap);
  });
}

void Replica::fetch_members_at(ShardId shard, Epoch epoch,
                               std::function<void(bool, std::vector<ProcessId>)> cb) {
  cs_.get(shard, epoch, [cb](bool found, const configsvc::ShardConfig& cfg) {
    cb(found, cfg.members);
  });
}

void Replica::send_probe(ProcessId target, Epoch new_epoch) {
  rt().send_msg(id(), target, Probe{new_epoch});
}

std::vector<ProcessId> Replica::reserve_spares(ShardId shard, std::size_t n) {
  return options_.allocate_spares ? options_.allocate_spares(shard, n)
                                  : std::vector<ProcessId>{};
}

void Replica::release_spares(ShardId shard, const std::vector<ProcessId>& spares) {
  if (options_.release_spares) options_.release_spares(shard, spares);
}

void Replica::submit(const recon::Proposal& proposal,
                     std::function<void(bool)> done) {
  const auto& [shard, next] = *proposal.shards.begin();
  cs_.cas(shard, proposal.epoch - 1, next, std::move(done));
}

void Replica::activate(const recon::Proposal& proposal) {
  // Line 50: hand the won configuration to its new leader.
  const configsvc::ShardConfig& next = proposal.shards.begin()->second;
  rt().send_msg(id(), next.leader, NewConfig{next.epoch, next.members});
}

recon::PlacementContext Replica::placement_context(ShardId shard) {
  return options_.placement_context ? options_.placement_context(shard)
                                    : recon::PlacementContext{};
}

void Replica::handle_new_config(ProcessId from, const NewConfig& m) {
  (void)from;
  // Guard per the proof of Invariant 3: only accept configurations at least
  // as new as the highest probed epoch.
  if (m.epoch < new_epoch_) return;
  new_epoch_ = m.epoch;
  // Lines 57-58.
  status_ = Status::kLeader;
  configsvc::ShardConfig& v = views_[options_.shard];
  v.epoch = m.epoch;
  v.members = m.members;
  v.leader = id();
  // Line 59.
  next_ = log_.max_filled();
  // Leadership takeover: the log may hold entries this process never saw
  // individually (earlier NEW_STATE transfers), so reindex wholesale and
  // make sure every still-prepared slot has live retry bookkeeping.
  index_.rebuild(log_);
  rebuild_snapshot_store();
  for (Slot k = 1; k <= log_.size(); ++k) {
    const LogEntry* e = log_.find(k);
    if (e != nullptr && e->phase == Phase::kPrepared && prepared_at_.count(k) == 0) {
      prepared_at_[k] = rt().now();
    }
  }
  if (monitor_) monitor_->on_epoch_installed(*this);
  // Line 60: transfer state to the followers.
  NewState ns;
  ns.epoch = m.epoch;
  ns.members = m.members;
  ns.log = log_;
  for (ProcessId p : m.members) {
    if (p != id()) rt().send_msg(id(), p, ns);
  }
  RATC_DEBUG(name() << " leads s" << options_.shard << " at epoch " << m.epoch);
}

void Replica::handle_new_state(ProcessId from, const NewState& m) {
  // Line 62 pre: e ≥ new_epoch.
  if (m.epoch < new_epoch_) return;
  new_epoch_ = m.epoch;
  // Lines 63-66.
  initialized_ = true;
  status_ = Status::kFollower;
  configsvc::ShardConfig& v = views_[options_.shard];
  v.epoch = m.epoch;
  v.members = m.members;
  v.leader = from;
  log_ = m.log;
  index_.rebuild(log_);
  rebuild_snapshot_store();
  // Re-arm the retry bookkeeping for slots still prepared in the new epoch:
  // clearing prepared_at_ wholesale here used to drop them from the line-70
  // retry contract entirely — if their coordinator died mid-2PC, no replica
  // ever re-drove them and they stayed undecided forever.
  prepared_at_.clear();
  for (Slot k = 1; k <= log_.size(); ++k) {
    const LogEntry* e = log_.find(k);
    if (e != nullptr && e->phase == Phase::kPrepared) prepared_at_[k] = rt().now();
  }
  if (monitor_) monitor_->on_epoch_installed(*this);
  RATC_DEBUG(name() << " follows " << process_name(from) << " in s" << options_.shard
                    << " at epoch " << m.epoch);
}

void Replica::handle_config_change(const configsvc::ConfigChange& m) {
  // Line 68 pre: epoch[s] < e ∧ s ≠ s0.
  if (m.shard == options_.shard) return;
  configsvc::ShardConfig& v = views_[m.shard];
  if (v.epoch >= m.config.epoch) return;
  v = m.config;  // line 69
}

// --- CSN reads -------------------------------------------------------------

tcs::Csn Replica::read_watermark() const {
  // Below the smallest prepare stamp among prepared-undecided slots: any
  // commit this replica has not yet applied either sits prepared here (and
  // then its csn >= that stamp, above the watermark) or has not gathered
  // this replica's ACCEPT_ACK yet (line 26) and so is not decided anywhere.
  // prepared_at_ holds every prepared slot (each write into kPrepared adds
  // one, NEW_STATE rebuilds it), so only the in-flight slots are read.
  std::optional<Time> min_ts = log_.min_prepared_ts(prepared_at_);
  if (options_.check_certifier_index && min_ts != log_.scan_min_prepared_ts()) {
    RATC_ERROR(name() << " read watermark diverged from the log scan");
    std::abort();
  }
  return tcs::watermark(min_ts, rt().now());
}

void Replica::rebuild_snapshot_store() {
  // The log replaced wholesale (NEW_STATE) or inherited across a takeover
  // (NEW_CONFIG) is the authoritative committed state: refile every decided
  // commit under its csn.  Entries decided elsewhere while this replica was
  // down arrive with csn_ts carried in the transferred log.
  store_.clear();
  for (const LogEntry& e : log_.entries()) {
    if (e.phase == Phase::kDecided && e.dec == Decision::kCommit) {
      store_.apply_at(e.payload, tcs::Csn{e.csn_ts, e.txn});
    }
  }
}

// --- retry timer ----------------------------------------------------------

void Replica::arm_retry_timer() {
  if (options_.retry_timeout == 0) return;
  rt().schedule_for(id(), options_.retry_timeout, [this] {
    run_retry_tick();
    arm_retry_timer();
  });
}

void Replica::run_retry_tick() {
  Time now = rt().now();
  // Pass 1 — collect.  retry() re-enters coordination state and the
  // rate-limit updates of pass 2 write prepared_at_, so nothing may mutate
  // the map while it is iterated.
  std::vector<Slot> stale;
  for (const auto& [slot, since] : prepared_at_) {
    const LogEntry* e = log_.find(slot);
    if (e != nullptr && e->phase == Phase::kPrepared &&
        now - since >= options_.retry_timeout) {
      stale.push_back(slot);
    }
  }
  // Pass 2 — act.  Both passes run in the same synchronous event, so a
  // collected slot cannot have left the prepared phase in between (nothing
  // is silently skipped), and the driven set pins that no transaction is
  // re-driven twice within the tick (a replica's log holds each transaction
  // in at most one slot).
  std::set<TxnId> driven;
  for (Slot k : stale) {
    prepared_at_[k] = now;  // rate-limit further retries
    const LogEntry* e = log_.find(k);
    assert(e != nullptr && e->phase == Phase::kPrepared &&
           "stale slot silently skipped within one retry tick");
    bool first = driven.insert(e->txn).second;
    (void)first;
    assert(first && "slot retry duplicated within one retry tick");
    retry(k);
  }
  redrive_coordinations(driven);
}

// --- dispatch ----------------------------------------------------------------

void Replica::on_message(ProcessId from, const sim::AnyMessage& msg) {
  if (cs_.handle(msg)) return;
  if (fd_responder_.handle(from, msg)) return;
  if (const auto* m = msg.as<CertifyRequest>()) {
    TxnMeta meta;
    meta.txn = m->txn;
    meta.participants = options_.shard_map->shards_of(m->payload);
    meta.client = from;
    start_certification(std::move(meta), &m->payload, nullptr);
  } else if (const auto* b = msg.as<CertifyBatchRequest>()) {
    certify_batch_remote(from, b->items);
  } else if (const auto* p = msg.as<Prepare>()) {
    handle_prepare(from, *p);
  } else if (const auto* pb = msg.as<PrepareBatch>()) {
    handle_prepare_batch(from, *pb);
  } else if (const auto* pa = msg.as<PrepareAck>()) {
    handle_prepare_ack(from, *pa);
  } else if (const auto* pab = msg.as<PrepareAckBatch>()) {
    handle_prepare_ack_batch(from, *pab);
  } else if (const auto* a = msg.as<Accept>()) {
    handle_accept(from, *a);
  } else if (const auto* ab = msg.as<AcceptBatch>()) {
    handle_accept_batch(from, *ab);
  } else if (const auto* aa = msg.as<AcceptAck>()) {
    handle_accept_ack(from, *aa);
  } else if (const auto* aab = msg.as<AcceptAckBatch>()) {
    handle_accept_ack_batch(from, *aab);
  } else if (const auto* d = msg.as<DecisionMsg>()) {
    handle_decision(from, *d);
  } else if (const auto* pr = msg.as<Probe>()) {
    handle_probe(from, *pr);
  } else if (const auto* pra = msg.as<ProbeAck>()) {
    engine_.on_probe_ack(from, pra->shard, pra->epoch, pra->initialized);
  } else if (const auto* nc = msg.as<NewConfig>()) {
    handle_new_config(from, *nc);
  } else if (const auto* ns = msg.as<NewState>()) {
    handle_new_state(from, *ns);
  } else if (const auto* cc = msg.as<configsvc::ConfigChange>()) {
    handle_config_change(*cc);
  }
}

}  // namespace ratc::commit
