#include "rdma/replica.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "common/log.h"
#include "ctrl/messages.h"
#include "rdma/monitor.h"

namespace ratc::rdma {

using tcs::Decision;

Replica::Replica(sim::Simulator& sim, sim::Network& net, Fabric& fabric,
                 ProcessId id, Options options)
    : Replica(net.runtime(), fabric, id, std::move(options)) {
  (void)sim;
}

Replica::Replica(rt::Runtime& rt, Fabric& fabric, ProcessId id, Options options)
    : Process(rt, id, "rr" + std::to_string(id) + "/s" + std::to_string(options.shard)),
      options_(std::move(options)),
      fabric_(fabric),
      gcs_(rt, id, options_.cs_endpoints),
      cs_(rt, id, options_.cs_endpoints),
      fd_responder_(rt, id),
      monitor_(options_.monitor),
      engine_(rt, id, *this,
              {.target_shard_size = options_.target_shard_size,
               .probe_patience = options_.probe_patience,
               .policy = options_.placement_policy}),
      store_(options_.snapshot_history_depth) {
  assert(options_.shard_map != nullptr && options_.certifier != nullptr);
  fabric_.attach(
      id,
      [this](ProcessId from, const sim::AnyMessage& msg) { deliver_rdma(from, msg); },
      [this](const RdmaAck& ack) { handle_rdma_ack(ack); });
}

Epoch Replica::epoch() const {
  if (options_.mode == ReconfigMode::kGlobalSafe) return epoch_;
  auto it = views_.find(options_.shard);
  return it == views_.end() ? kNoEpoch : it->second.epoch;
}

Epoch Replica::view_epoch(ShardId s) const {
  if (options_.mode == ReconfigMode::kGlobalSafe) return epoch_;
  auto it = views_.find(s);
  return it == views_.end() ? kNoEpoch : it->second.epoch;
}

ProcessId Replica::leader_of(ShardId s) const {
  if (options_.mode == ReconfigMode::kGlobalSafe) {
    auto it = config_.leaders.find(s);
    return it == config_.leaders.end() ? kNoProcess : it->second;
  }
  auto it = views_.find(s);
  return it == views_.end() ? kNoProcess : it->second.leader;
}

std::vector<ProcessId> Replica::members_of(ShardId s) const {
  if (options_.mode == ReconfigMode::kGlobalSafe) {
    auto it = config_.members.find(s);
    return it == config_.members.end() ? std::vector<ProcessId>{} : it->second;
  }
  auto it = views_.find(s);
  return it == views_.end() ? std::vector<ProcessId>{} : it->second.members;
}

void Replica::bootstrap(Status status, const configsvc::GlobalConfig& config) {
  status_ = status;
  initialized_ = true;
  epoch_ = config.epoch;
  new_epoch_ = config.epoch;
  config_ = config;
  for (const auto& [s, members] : config.members) {
    configsvc::ShardConfig& v = views_[s];
    v.epoch = config.epoch;
    v.members = members;
    v.leader = config.leaders.at(s);
  }
  // Epoch 1 is pre-activated: all connections open.
  for (ProcessId p : config.all_members()) {
    if (p == id()) continue;
    fabric_.open(id(), p);
    connections_.insert(p);
  }
  arm_retry_timer();
}

void Replica::bootstrap_spare(const configsvc::GlobalConfig& config) {
  status_ = Status::kReconfiguring;
  initialized_ = false;
  config_ = config;
  epoch_ = kNoEpoch;
  new_epoch_ = kNoEpoch;
  for (const auto& [s, members] : config.members) {
    configsvc::ShardConfig& v = views_[s];
    v.epoch = config.epoch;
    v.members = members;
    v.leader = config.leaders.at(s);
  }
  if (options_.mode == ReconfigMode::kPerShardUnsafe) {
    // No connection management in the strawman: spares accept writes too.
    for (ProcessId p : config.all_members()) {
      if (p != id()) fabric_.open(id(), p);
    }
  }
  arm_retry_timer();
}

// --- certification (Fig. 7) ---------------------------------------------------

void Replica::certify_local(TxnId txn, const tcs::Payload& payload,
                            std::function<void(tcs::Decision, Time)> cb,
                            ProcessId origin) {
  commit::TxnMeta meta;
  meta.txn = txn;
  meta.participants = options_.shard_map->shards_of(payload);
  // The co-located client's id rides in the meta so a successor coordinator
  // can deliver the decision after this replica crashed (see commit::Replica).
  meta.client = origin;
  start_certification(std::move(meta), &payload, std::move(cb));
}

void Replica::start_certification(commit::TxnMeta meta, const tcs::Payload* full_payload,
                                  std::function<void(tcs::Decision, Time)> local_cb) {
  TxnId txn = meta.txn;
  if (meta.participants.empty()) {
    if (local_cb) {
      if (monitor_) monitor_->on_local_decision(txn, Decision::kCommit);
      local_cb(Decision::kCommit, 0);
    } else if (meta.client != kNoProcess) {
      rt().send_msg(id(), meta.client, commit::ClientDecision{txn, Decision::kCommit});
    }
    return;
  }
  CoordState& c = coord_[txn];
  if (c.decided) return;  // late retry of an already-decided coordination
  undecided_coords_.insert(txn);
  c.meta = meta;
  if (local_cb) c.local_cb = std::move(local_cb);
  c.last_driven = rt().now();
  // Lines 75-76.
  for (ShardId s : meta.participants) {
    commit::Prepare p;
    p.txn = txn;
    if (full_payload != nullptr) {
      p.has_payload = true;
      p.payload = options_.shard_map->project(*full_payload, s);
      c.shard_payloads[s] = p.payload;
    } else {
      p.has_payload = false;
    }
    p.meta = meta;
    rt().send_msg(id(), leader_of(s), p);
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
  // One PREPARE_BATCH per shard leader; per-transaction coordinator state
  // identical to start_certification (see commit::Replica).
  std::map<ShardId, commit::PrepareBatch> per_shard;
  for (const auto& [txn, payload] : batch) {
    commit::TxnMeta meta;
    meta.txn = txn;
    meta.participants = options_.shard_map->shards_of(payload);
    // Carrying the origin client lets a successor coordinator finish each
    // batch item independently after a crash (see commit::Replica).
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
      commit::Prepare p;
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
      rt().send_msg(id(), leader_of(s), std::move(pb.items.front()));
    } else {
      rt().send_msg(id(), leader_of(s), std::move(pb));
    }
  }
}

void Replica::redrive_coordinations(const std::set<TxnId>& driven_this_tick) {
  // Same availability hole as the message-passing stack (see
  // commit::Replica::redrive_coordinations): a PREPARE that died with a
  // crashed leader leaves no prepared witness, so only its coordinator can
  // re-drive the transaction once reconfiguration installs a new leader.
  (void)driven_this_tick;  // only read by the assert below
  Time now = rt().now();
  // Each coordination re-drives independently with its own projections —
  // batch-mates share no fate (see commit::Replica::redrive_coordinations).
  for (TxnId txn : undecided_coords_) {
    CoordState& c = coord_.at(txn);
    if (now - c.last_driven < options_.retry_timeout) continue;
    assert(driven_this_tick.count(txn) == 0 &&
           "coordination re-driven twice in one retry tick");
    c.last_driven = now;
    for (ShardId s : c.meta.participants) {
      commit::Prepare p;
      p.txn = txn;
      auto it = c.shard_payloads.find(s);
      if (it != c.shard_payloads.end()) {
        p.has_payload = true;
        p.payload = it->second;
      } else {
        p.has_payload = false;
      }
      p.meta = c.meta;
      rt().send_msg(id(), leader_of(s), p);
    }
  }
}

void Replica::retry(Slot k) {
  const commit::LogEntry* e = log_.find(k);
  // Line 168 pre: phase[k] = prepared.
  if (e == nullptr || e->phase != commit::Phase::kPrepared) return;
  start_certification(e->meta, nullptr, nullptr);  // lines 169-170
}

void Replica::handle_prepare(ProcessId from, const commit::Prepare& m) {
  // Line 78 pre.
  if (status_ != Status::kLeader) return;
  prepare_and_ack(from, m);
}

commit::PrepareAck Replica::prepare_txn(const commit::Prepare& m) {
  Slot existing = log_.slot_of(m.txn);
  commit::PrepareAck ack;
  ack.epoch = view_epoch(options_.shard);
  ack.shard = options_.shard;
  ack.txn = m.txn;
  if (existing != kNoSlot) {
    // Lines 79-80.
    const commit::LogEntry& e = *log_.find(existing);
    ack.slot = existing;
    ack.payload = e.payload;
    ack.vote = e.vote;
    ack.meta = e.meta;
    ack.prepare_ts = e.prepare_ts;
  } else {
    // Lines 82-90.
    next_ += 1;
    commit::LogEntry& e = log_.at(next_);
    e.txn = m.txn;
    e.phase = commit::Phase::kPrepared;
    e.meta = m.meta;
    // The CSN-log stamp: final for the slot's life (see commit::Replica).
    e.prepare_ts = rt().now();
    if (m.has_payload) {
      e.payload = m.payload;
      e.vote = compute_vote(next_, m.payload);
    } else {
      e.vote = Decision::kAbort;
      e.payload = tcs::empty_payload();
      if (monitor_ || options_.check_certifier_index) {
        // Report the abort's witness sets too: TCS-LL's (10) pins T_s even
        // for abort votes.  The vote is the protocol's forced abort, not an
        // index computation, so only the sets are cross-checked (see
        // commit/replica.cc).
        commit::WitnessIndex::Witnesses w = index_.collect(log_, next_);
        check_index_sets_against_flat(next_, w);
        if (monitor_) {
          monitor_->on_vote_computed(options_.shard, view_epoch(options_.shard),
                                     next_, m.txn, e.vote, e.payload,
                                     std::move(w.committed),
                                     std::move(w.prepared));
        }
      }
    }
    prepared_at_[next_] = rt().now();
    index_.on_prepared(log_, next_);
    ack.slot = next_;
    ack.payload = e.payload;
    ack.vote = e.vote;
    ack.meta = e.meta;
    ack.prepare_ts = e.prepare_ts;
  }
  return ack;
}

void Replica::prepare_and_ack(ProcessId coordinator, const commit::Prepare& m) {
  rt().send_msg(id(), coordinator, prepare_txn(m));
}

void Replica::handle_prepare_batch(ProcessId from, const commit::PrepareBatch& m) {
  if (status_ != Status::kLeader) return;  // line 78 pre, once for the batch
  commit::PrepareAckBatch acks;
  acks.items.reserve(m.items.size());
  for (const commit::Prepare& p : m.items) acks.items.push_back(prepare_txn(p));
  rt().send_msg(id(), from, std::move(acks));
}

void Replica::check_index_against_flat(
    Slot slot, tcs::Decision indexed_vote, const tcs::Payload& l,
    const commit::WitnessIndex::Witnesses& w) const {
  if (!options_.check_certifier_index) return;
  std::vector<const tcs::Payload*> l1, l2;
  for (Slot k = 1; k < slot; ++k) {
    const commit::LogEntry* e = log_.find(k);
    if (e == nullptr || !e->filled()) continue;
    if (e->phase == commit::Phase::kDecided && e->dec == Decision::kCommit) {
      l1.push_back(&e->payload);
    } else if (e->phase == commit::Phase::kPrepared && e->vote == Decision::kCommit) {
      l2.push_back(&e->payload);
    }
  }
  Decision flat_vote = options_.certifier->vote(l1, l2, l);
  // Not assert(): must fire in RelWithDebInfo sweeps too.
  if (indexed_vote != flat_vote) {
    RATC_ERROR(name() << " witness index vote diverged at slot " << slot << ": indexed="
                      << tcs::to_string(indexed_vote) << " flat=" << tcs::to_string(flat_vote));
    std::abort();
  }
  check_index_sets_against_flat(slot, w);
}

void Replica::check_index_sets_against_flat(
    Slot slot, const commit::WitnessIndex::Witnesses& w) const {
  if (!options_.check_certifier_index) return;
  std::vector<TxnId> t_set, p_set;
  for (Slot k = 1; k < slot; ++k) {
    const commit::LogEntry* e = log_.find(k);
    if (e == nullptr || !e->filled()) continue;
    if (e->phase == commit::Phase::kDecided && e->dec == Decision::kCommit) {
      t_set.push_back(e->txn);
    } else if (e->phase == commit::Phase::kPrepared && e->vote == Decision::kCommit) {
      p_set.push_back(e->txn);
    }
  }
  if (t_set != w.committed || p_set != w.prepared) {
    RATC_ERROR(name() << " witness index T_s/P_s sets diverged at slot " << slot);
    std::abort();
  }
}

tcs::Decision Replica::compute_vote(Slot slot, const tcs::Payload& l) {
  // Line 85 through the witness index (see commit::Replica::compute_vote).
  Decision vote = index_.vote(*options_.certifier, log_, l);
  commit::WitnessIndex::Witnesses w;
  if (monitor_ || options_.check_certifier_index) w = index_.collect(log_, slot);
  check_index_against_flat(slot, vote, l, w);
  if (monitor_) {
    monitor_->on_vote_computed(options_.shard, view_epoch(options_.shard), slot,
                               log_.find(slot)->txn, vote, l, std::move(w.committed),
                               std::move(w.prepared));
  }
  return vote;
}

bool Replica::note_prepare_ack(const commit::PrepareAck& m, RAccept* accept) {
  // Line 92 pre: e = epoch (the coordinator's current epoch; per-shard view
  // in the unsafe variant).
  if (view_epoch(m.shard) != m.epoch) return false;
  auto it = coord_.find(m.txn);
  if (it == coord_.end() || it->second.decided) return false;
  CoordState& c = it->second;
  ShardProgress& pr = c.progress[m.shard];
  if (!(pr.have_prepare_ack && pr.epoch == m.epoch && pr.slot == m.slot)) {
    pr.have_prepare_ack = true;
    pr.epoch = m.epoch;
    pr.slot = m.slot;
    pr.vote = m.vote;
    pr.prepare_ts = m.prepare_ts;
    pr.acked.clear();
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

void Replica::handle_prepare_ack(const commit::PrepareAck& m) {
  RAccept acc;
  if (!note_prepare_ack(m, &acc)) return;
  // Line 93: one-sided writes to the followers.
  for (ProcessId f : members_of(m.shard)) {
    if (f == leader_of(m.shard)) continue;
    std::uint64_t token = fabric_.send_rdma(id(), f, sim::AnyMessage(acc));
    write_tokens_[token] = {{m.txn, m.shard, f}};
  }
  check_coordination(m.txn);
}

void Replica::handle_prepare_ack_batch(const commit::PrepareAckBatch& m) {
  // One batched one-sided write per follower carries the whole batch's
  // ACCEPTs; its single NIC ack fans out to every item (write_tokens_).
  std::map<ProcessId, RAcceptBatch> ship;
  for (const commit::PrepareAck& item : m.items) {
    RAccept acc;
    if (!note_prepare_ack(item, &acc)) continue;
    for (ProcessId f : members_of(item.shard)) {
      if (f == leader_of(item.shard)) continue;
      ship[f].items.push_back(acc);
    }
    check_coordination(item.txn);  // zero-follower shards complete immediately
  }
  for (auto& [f, batch] : ship) {
    std::vector<std::tuple<TxnId, ShardId, ProcessId>> entries;
    entries.reserve(batch.items.size());
    for (const RAccept& a : batch.items) entries.emplace_back(a.txn, a.shard, f);
    std::uint64_t token;
    if (batch.items.size() == 1) {
      token = fabric_.send_rdma(id(), f, sim::AnyMessage(batch.items.front()));
    } else {
      token = fabric_.send_rdma(id(), f, sim::AnyMessage(std::move(batch)));
    }
    write_tokens_[token] = std::move(entries);
  }
}

void Replica::handle_rdma_ack(const RdmaAck& ack) {
  auto it = write_tokens_.find(ack.token);
  if (it == write_tokens_.end()) return;  // a DECISION write; nothing to track
  std::vector<std::tuple<TxnId, ShardId, ProcessId>> entries = std::move(it->second);
  write_tokens_.erase(it);
  for (const auto& [txn, s, follower] : entries) {
    auto cit = coord_.find(txn);
    if (cit == coord_.end() || cit->second.decided) continue;
    auto pit = cit->second.progress.find(s);
    if (pit == cit->second.progress.end()) continue;
    pit->second.acked.insert(follower);
    check_coordination(txn);
  }
}

void Replica::check_coordination(TxnId txn) {
  auto it = coord_.find(txn);
  if (it == coord_.end() || it->second.decided) return;
  CoordState& c = it->second;
  // Lines 96-97: ack-rdma from every current follower of every shard, and
  // the PREPARE_ACK epoch still matches the coordinator's current epoch.
  Decision decision = Decision::kCommit;
  Time csn_ts = 0;  // csn(t).ts = max prepare stamp over the involved shards
  for (ShardId s : c.meta.participants) {
    auto pit = c.progress.find(s);
    if (pit == c.progress.end()) return;
    const ShardProgress& pr = pit->second;
    if (!pr.have_prepare_ack || pr.epoch != view_epoch(s)) return;
    ProcessId l = leader_of(s);
    for (ProcessId p : members_of(s)) {
      if (p != l && pr.acked.count(p) == 0) return;
    }
    decision = meet(decision, pr.vote);
    csn_ts = std::max(csn_ts, pr.prepare_ts);
  }
  if (decision != Decision::kCommit) csn_ts = 0;  // aborts never enter the CSN log
  c.decided = true;  // guards re-entrancy from the client callback below
  // Line 98.
  if (c.local_cb) {
    if (monitor_) monitor_->on_local_decision(txn, decision);
    c.local_cb(decision, csn_ts);
  } else if (c.meta.client != kNoProcess) {
    rt().send_msg(id(), c.meta.client, commit::ClientDecision{txn, decision, csn_ts});
  }
  // Lines 99-100: decisions are one-sided writes too.
  for (ShardId s : c.meta.participants) {
    const ShardProgress& pr = c.progress.at(s);
    RDecision d;
    d.epoch = pr.epoch;
    d.shard = s;
    d.slot = pr.slot;
    d.txn = txn;
    d.decision = decision;
    d.csn_ts = csn_ts;
    for (ProcessId p : members_of(s)) {
      fabric_.send_rdma(id(), p, sim::AnyMessage(d));
    }
  }
  // Complete: shed the heavy state but keep a decided tombstone (see
  // commit::Replica::check_coordination).
  c.progress.clear();
  c.shard_payloads.clear();
  c.local_cb = nullptr;
  undecided_coords_.erase(txn);
}

void Replica::apply_raccept(const RAccept& a) {
  // Line 95: no guard — the write already landed; the CPU just records it.
  commit::LogEntry& e = log_.at(a.slot);
  e.txn = a.txn;
  e.payload = a.payload;
  e.vote = a.vote;
  e.phase = commit::Phase::kPrepared;
  e.meta = a.meta;
  e.prepare_ts = a.prepare_ts;  // the leader's CSN stamp, replicated
  prepared_at_[a.slot] = rt().now();
  index_.on_prepared(log_, a.slot);
}

void Replica::apply_rdecision(const RDecision& d) {
  // Line 102.
  commit::LogEntry& e = log_.at(d.slot);
  if (e.phase == commit::Phase::kStart) e.txn = d.txn;
  e.dec = d.decision;
  e.phase = commit::Phase::kDecided;
  e.csn_ts = d.csn_ts;
  prepared_at_.erase(d.slot);
  index_.on_decided(log_, d.slot);
  // Advance the committed multi-version state; a commit write can only land
  // on a slot whose ACCEPT this replica's NIC acknowledged (lines 96-97), so
  // the payload is present.  Duplicate writes re-apply the same csn (no-op).
  if (d.decision == Decision::kCommit) {
    store_.apply_at(e.payload, tcs::Csn{d.csn_ts, d.txn});
  }
}

void Replica::deliver_rdma(ProcessId from, const sim::AnyMessage& msg) {
  (void)from;
  if (const auto* a = msg.as<RAccept>()) {
    apply_raccept(*a);
  } else if (const auto* ab = msg.as<RAcceptBatch>()) {
    // The batched write lands its items back-to-back, in order.
    for (const RAccept& item : ab->items) apply_raccept(item);
  } else if (const auto* d = msg.as<RDecision>()) {
    apply_rdecision(*d);
  }
}

// --- reconfiguration: the engine's hooks ----------------------------------------
//
// Both modes run the shared reconfigurer core (recon::Engine).  Safe mode
// (Fig. 8): one multi-shard attempt over the global configuration service;
// the engine waits for an initialized responder in EVERY shard (line 117)
// before proposing, and activate() stages the fabric-aware install phase
// (CONFIG_PREPARE dissemination).  Unsafe mode (the Fig. 4a strawman): the
// Fig. 1 per-shard attempt, with NEW_CONFIG handed straight to the new
// leader — reproducing the protocol the paper proves incorrect.

void Replica::reconfigure() {
  assert(options_.mode == ReconfigMode::kGlobalSafe);
  // Line 104 pre: not already probing or installing.
  if (installing_) return;
  engine_.start({});  // shard set comes from the GCS snapshot
}

void Replica::reconfigure_shard(ShardId s) {
  assert(options_.mode == ReconfigMode::kPerShardUnsafe);
  engine_.start({s});
}

void Replica::handle_probe(ProcessId from, const commit::Probe& m) {
  // Line 112 pre (line 41 in unsafe mode).
  if (m.epoch < new_epoch_) return;
  status_ = Status::kReconfiguring;
  if (options_.mode == ReconfigMode::kGlobalSafe) {
    // Line 114: sever all incoming RDMA connections — the guard that the
    // unsafe variant lacks.
    fabric_.close_all(id());
    connections_.clear();
  }
  new_epoch_ = m.epoch;
  rt().send_msg(id(), from, commit::ProbeAck{initialized_, m.epoch, options_.shard});
}

void Replica::fetch_latest(const std::vector<ShardId>& shards,
                           std::function<void(bool, recon::Snapshot)> cb) {
  if (options_.mode == ReconfigMode::kGlobalSafe) {
    // Lines 106-110: the global protocol probes every shard of the latest
    // stored global configuration.
    gcs_.get_last([cb](const configsvc::GlobalConfig& cfg) {
      if (!cfg.valid()) {
        cb(false, {});
        return;
      }
      recon::Snapshot snap;
      snap.epoch = cfg.epoch;
      snap.members = cfg.members;
      cb(true, snap);
    });
  } else {
    ShardId s = shards.front();
    cs_.get_last(s, [s, cb](const configsvc::ShardConfig& cfg) {
      if (!cfg.valid()) {
        cb(false, {});
        return;
      }
      recon::Snapshot snap;
      snap.epoch = cfg.epoch;
      snap.members[s] = cfg.members;
      cb(true, snap);
    });
  }
}

void Replica::fetch_members_at(ShardId shard, Epoch epoch,
                               std::function<void(bool, std::vector<ProcessId>)> cb) {
  if (options_.mode == ReconfigMode::kGlobalSafe) {
    gcs_.get(epoch, [shard, cb](bool found, const configsvc::GlobalConfig& cfg) {
      if (!found) {
        cb(false, {});
        return;
      }
      auto mit = cfg.members.find(shard);
      if (mit == cfg.members.end()) {
        cb(false, {});
        return;
      }
      cb(true, mit->second);
    });
  } else {
    cs_.get(shard, epoch, [cb](bool found, const configsvc::ShardConfig& cfg) {
      cb(found, cfg.members);
    });
  }
}

void Replica::send_probe(ProcessId target, Epoch new_epoch) {
  rt().send_msg(id(), target, commit::Probe{new_epoch});
}

std::vector<ProcessId> Replica::reserve_spares(ShardId shard, std::size_t n) {
  return options_.allocate_spares ? options_.allocate_spares(shard, n)
                                  : std::vector<ProcessId>{};
}

void Replica::release_spares(ShardId shard, const std::vector<ProcessId>& spares) {
  // Losing a CAS (e.g. two nudged replicas racing the global CAS) must not
  // consume the fresh spares the losing proposal reserved; the engine
  // routes them back here.
  if (options_.release_spares) options_.release_spares(shard, spares);
}

namespace {
configsvc::GlobalConfig to_global(const recon::Proposal& proposal) {
  configsvc::GlobalConfig gc;
  gc.epoch = proposal.epoch;
  for (const auto& [s, cfg] : proposal.shards) {
    gc.members[s] = cfg.members;
    gc.leaders[s] = cfg.leader;
  }
  return gc;
}
}  // namespace

void Replica::submit(const recon::Proposal& proposal,
                     std::function<void(bool)> done) {
  if (options_.mode == ReconfigMode::kGlobalSafe) {
    gcs_.cas(proposal.epoch - 1, to_global(proposal), std::move(done));
  } else {
    const auto& [shard, next] = *proposal.shards.begin();
    cs_.cas(shard, proposal.epoch - 1, next, std::move(done));
  }
}

void Replica::activate(const recon::Proposal& proposal) {
  if (options_.mode == ReconfigMode::kGlobalSafe) {
    // Lines 131-136 start here: disseminate CONFIG_PREPARE to the whole new
    // membership; activation (RNEW_CONFIG) waits for every ack.
    recon_config_ = to_global(proposal);
    installing_ = true;
    config_prepare_acks_.clear();
    for (ProcessId p : recon_config_.all_members()) {
      rt().send_msg(id(), p, ConfigPrepare{recon_config_.epoch, recon_config_});
    }
  } else {
    const configsvc::ShardConfig& next = proposal.shards.begin()->second;
    rt().send_msg(id(), next.leader, commit::NewConfig{next.epoch, next.members});
  }
}

recon::PlacementContext Replica::placement_context(ShardId shard) {
  return options_.placement_context ? options_.placement_context(shard)
                                    : recon::PlacementContext{};
}

void Replica::handle_config_prepare(ProcessId from, const ConfigPrepare& m) {
  // Lines 132-136.
  if (m.epoch < new_epoch_) return;
  pending_config_ = m.config;
  new_epoch_ = m.epoch;
  rt().send_msg(id(), from, ConfigPrepareAck{m.epoch});
}

void Replica::handle_config_prepare_ack(ProcessId from, const ConfigPrepareAck& m) {
  // Lines 137-140.
  if (!installing_ || m.epoch != recon_config_.epoch) return;
  config_prepare_acks_.insert(from);
  for (ProcessId p : recon_config_.all_members()) {
    if (config_prepare_acks_.count(p) == 0) return;
  }
  installing_ = false;
  for (ProcessId l : recon_config_.all_leaders()) {
    rt().send_msg(id(), l, RNewConfig{recon_config_.epoch});
  }
}

void Replica::handle_new_config(const RNewConfig& m) {
  // Lines 141-147.
  if (m.epoch < new_epoch_ || pending_config_.epoch != m.epoch) return;
  // Line 142: everything the NICs acknowledged must be visible before the
  // state transfer — coordinators may have externalized decisions based on
  // those acknowledgements.
  if (!options_.ablate_flush) fabric_.flush(id());
  status_ = Status::kLeader;
  epoch_ = m.epoch;
  new_epoch_ = m.epoch;
  config_ = pending_config_;
  next_ = log_.max_filled();  // line 145
  // Leadership takeover: reindex the (possibly transferred) log and make
  // sure every still-prepared slot has live retry bookkeeping.
  index_.rebuild(log_);
  rebuild_snapshot_store();
  for (Slot k = 1; k <= log_.size(); ++k) {
    const commit::LogEntry* e = log_.find(k);
    if (e != nullptr && e->phase == commit::Phase::kPrepared &&
        prepared_at_.count(k) == 0) {
      prepared_at_[k] = rt().now();
    }
  }
  RNewState ns;
  ns.epoch = epoch_;
  ns.log = log_;
  for (ProcessId p : config_.members.at(options_.shard)) {
    if (p != id()) rt().send_msg(id(), p, ns);
  }
  open_connections_to(config_.all_members());  // line 147
  arm_connect_retry();
  RATC_DEBUG(name() << " leads s" << options_.shard << " at global epoch " << epoch_);
}

void Replica::handle_new_state(ProcessId from, const RNewState& m) {
  (void)from;
  // Lines 148-153.
  if (m.epoch < new_epoch_ || pending_config_.epoch != m.epoch) return;
  status_ = Status::kFollower;
  epoch_ = m.epoch;
  new_epoch_ = m.epoch;
  initialized_ = true;
  config_ = pending_config_;
  log_ = m.log;
  index_.rebuild(log_);
  rebuild_snapshot_store();
  // Re-arm retry bookkeeping for slots still prepared in the new epoch
  // instead of clearing it wholesale — dropping them orphaned the line-168
  // retry for transactions whose coordinator died mid-2PC (see
  // commit::Replica::handle_new_state).
  prepared_at_.clear();
  for (Slot k = 1; k <= log_.size(); ++k) {
    const commit::LogEntry* e = log_.find(k);
    if (e != nullptr && e->phase == commit::Phase::kPrepared) {
      prepared_at_[k] = rt().now();
    }
  }
  // Line 153 sends CONNECT only to other shards' members; we connect to all
  // members so same-shard followers can serve as coordinators for each
  // other too (see DESIGN.md Sec. 2).
  open_connections_to(config_.all_members());
  arm_connect_retry();
}

void Replica::open_connections_to(const std::vector<ProcessId>& peers) {
  for (ProcessId p : peers) {
    if (p == id() || connections_.count(p)) continue;
    rt().send_msg(id(), p, Connect{epoch_});
  }
}

void Replica::arm_connect_retry() {
  rt().schedule_for(id(), options_.connect_retry, [this, e = epoch_] {
    if (epoch_ != e || status_ == Status::kReconfiguring) return;
    bool missing = false;
    for (ProcessId p : config_.all_members()) {
      if (p != id() && connections_.count(p) == 0) {
        rt().send_msg(id(), p, Connect{epoch_});
        missing = true;
      }
    }
    if (missing) arm_connect_retry();
  });
}

void Replica::handle_connect(ProcessId from, const Connect& m) {
  // Lines 154-158.
  if (status_ == Status::kReconfiguring || m.epoch != epoch_) return;
  if (connections_.count(from) == 0) {
    fabric_.open(id(), from);
    connections_.insert(from);
  }
  rt().send_msg(id(), from, ConnectAck{epoch_});
}

void Replica::handle_connect_ack(ProcessId from, const ConnectAck& m) {
  // Lines 159-162.
  if (status_ == Status::kReconfiguring || m.epoch != epoch_) return;
  if (connections_.count(from)) return;
  fabric_.open(id(), from);
  connections_.insert(from);
}

// --- reconfiguration: per-shard unsafe mode (Fig. 4a strawman) -----------------

void Replica::handle_new_config_unsafe(const commit::NewConfig& m) {
  if (m.epoch < new_epoch_) return;
  new_epoch_ = m.epoch;
  status_ = Status::kLeader;
  configsvc::ShardConfig& v = views_[options_.shard];
  v.epoch = m.epoch;
  v.members = m.members;
  v.leader = id();
  next_ = log_.max_filled();
  index_.rebuild(log_);
  rebuild_snapshot_store();
  for (Slot k = 1; k <= log_.size(); ++k) {
    const commit::LogEntry* e = log_.find(k);
    if (e != nullptr && e->phase == commit::Phase::kPrepared &&
        prepared_at_.count(k) == 0) {
      prepared_at_[k] = rt().now();
    }
  }
  commit::NewState ns;
  ns.epoch = m.epoch;
  ns.members = m.members;
  ns.log = log_;
  for (ProcessId p : m.members) {
    if (p != id()) rt().send_msg(id(), p, ns);
  }
}

void Replica::handle_new_state_unsafe(ProcessId from, const commit::NewState& m) {
  if (m.epoch < new_epoch_) return;
  new_epoch_ = m.epoch;
  initialized_ = true;
  status_ = Status::kFollower;
  configsvc::ShardConfig& v = views_[options_.shard];
  v.epoch = m.epoch;
  v.members = m.members;
  v.leader = from;
  log_ = m.log;
  index_.rebuild(log_);
  rebuild_snapshot_store();
  // Same re-arm as the safe mode's handle_new_state: surviving prepared
  // slots keep their retry bookkeeping.
  prepared_at_.clear();
  for (Slot k = 1; k <= log_.size(); ++k) {
    const commit::LogEntry* e = log_.find(k);
    if (e != nullptr && e->phase == commit::Phase::kPrepared) {
      prepared_at_[k] = rt().now();
    }
  }
}

void Replica::handle_config_change(const configsvc::ConfigChange& m) {
  if (m.shard == options_.shard) return;
  configsvc::ShardConfig& v = views_[m.shard];
  if (v.epoch >= m.config.epoch) return;
  v = m.config;
}

// --- CSN reads -------------------------------------------------------------

tcs::Csn Replica::read_watermark() const {
  // Below the smallest prepare stamp among prepared-undecided slots (see
  // commit::Replica::read_watermark; the in-flight-write argument for why no
  // fabric flush is needed is in the header), read over prepared_at_, which
  // holds every prepared slot here too: the leader append and RAccept add
  // one, RNewState rebuilds it.
  std::optional<Time> min_ts = log_.min_prepared_ts(prepared_at_);
  if (options_.check_certifier_index && min_ts != log_.scan_min_prepared_ts()) {
    RATC_ERROR(name() << " read watermark diverged from the log scan");
    std::abort();
  }
  return tcs::watermark(min_ts, rt().now());
}

void Replica::rebuild_snapshot_store() {
  store_.clear();
  for (const commit::LogEntry& e : log_.entries()) {
    if (e.phase == commit::Phase::kDecided && e.dec == Decision::kCommit) {
      store_.apply_at(e.payload, tcs::Csn{e.csn_ts, e.txn});
    }
  }
}

// --- plumbing -------------------------------------------------------------------

void Replica::arm_retry_timer() {
  if (options_.retry_timeout == 0) return;
  rt().schedule_for(id(), options_.retry_timeout, [this] {
    run_retry_tick();
    arm_retry_timer();
  });
}

void Replica::run_retry_tick() {
  // Collect-then-act, mirroring commit::Replica::run_retry_tick: pass 1
  // iterates prepared_at_, pass 2 mutates it (rate-limit stamps) and
  // re-enters coordination state via retry().
  Time now = rt().now();
  std::vector<Slot> stale;
  for (const auto& [slot, since] : prepared_at_) {
    const commit::LogEntry* e = log_.find(slot);
    if (e != nullptr && e->phase == commit::Phase::kPrepared &&
        now - since >= options_.retry_timeout) {
      stale.push_back(slot);
    }
  }
  std::set<TxnId> driven;
  for (Slot k : stale) {
    prepared_at_[k] = now;  // rate-limit further retries
    const commit::LogEntry* e = log_.find(k);
    assert(e != nullptr && e->phase == commit::Phase::kPrepared &&
           "stale slot silently skipped within one retry tick");
    bool first = driven.insert(e->txn).second;
    (void)first;
    assert(first && "slot retry duplicated within one retry tick");
    retry(k);
  }
  redrive_coordinations(driven);
}

void Replica::on_message(ProcessId from, const sim::AnyMessage& msg) {
  if (options_.mode == ReconfigMode::kGlobalSafe ? gcs_.handle(msg) : cs_.handle(msg)) {
    return;
  }
  if (fd_responder_.handle(from, msg)) return;
  if (const auto* c = msg.as<commit::CertifyRequest>()) {
    commit::TxnMeta meta;
    meta.txn = c->txn;
    meta.participants = options_.shard_map->shards_of(c->payload);
    meta.client = from;
    start_certification(std::move(meta), &c->payload, nullptr);
  } else if (const auto* p = msg.as<commit::Prepare>()) {
    handle_prepare(from, *p);
  } else if (const auto* pb = msg.as<commit::PrepareBatch>()) {
    handle_prepare_batch(from, *pb);
  } else if (const auto* pa = msg.as<commit::PrepareAck>()) {
    handle_prepare_ack(*pa);
  } else if (const auto* pab = msg.as<commit::PrepareAckBatch>()) {
    handle_prepare_ack_batch(*pab);
  } else if (const auto* pr = msg.as<commit::Probe>()) {
    handle_probe(from, *pr);
  } else if (const auto* pra = msg.as<commit::ProbeAck>()) {
    engine_.on_probe_ack(from, pra->shard, pra->epoch, pra->initialized);
  } else if (const auto* cp = msg.as<ConfigPrepare>()) {
    handle_config_prepare(from, *cp);
  } else if (const auto* cpa = msg.as<ConfigPrepareAck>()) {
    handle_config_prepare_ack(from, *cpa);
  } else if (const auto* nc = msg.as<RNewConfig>()) {
    handle_new_config(*nc);
  } else if (const auto* ns = msg.as<RNewState>()) {
    handle_new_state(from, *ns);
  } else if (const auto* cn = msg.as<Connect>()) {
    handle_connect(from, *cn);
  } else if (const auto* cna = msg.as<ConnectAck>()) {
    handle_connect_ack(from, *cna);
  } else if (const auto* nc2 = msg.as<commit::NewConfig>()) {
    handle_new_config_unsafe(*nc2);
  } else if (const auto* ns2 = msg.as<commit::NewState>()) {
    handle_new_state_unsafe(from, *ns2);
  } else if (const auto* cc = msg.as<configsvc::ConfigChange>()) {
    handle_config_change(*cc);
  } else if (msg.as<ctrl::NudgeReconfig>() != nullptr) {
    // A reconfiguration controller suspects a member: run the global
    // reconfiguration (Fig. 8).  No-op while one is already in flight
    // (rec_status_ guard inside reconfigure()); the controller's watchdog
    // re-nudges if nothing lands.
    if (options_.mode == ReconfigMode::kGlobalSafe) reconfigure();
  }
}

}  // namespace ratc::rdma
