#include "commit/replica_core.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "common/log.h"

namespace ratc::commit {

using tcs::Decision;

ReplicaCore::ReplicaCore(rt::Runtime& rt, ProcessId id, std::string name,
                         const Options& options, CertificationObserver* observer)
    : Process(rt, id, std::move(name)),
      options_(options),
      cs_(rt, id, options_.cs_endpoints),
      engine_(rt, id, *this,
              {.target_shard_size = options_.target_shard_size,
               .probe_patience = options_.probe_patience,
               .policy = options_.placement_policy}),
      observer_(observer),
      fd_responder_(rt, id) {
  assert(options_.shard_map != nullptr && options_.certifier != nullptr);
  views_.resize(options_.shard_map->num_shards());
}

const configsvc::ShardConfig& ReplicaCore::view(ShardId s) const {
  static const configsvc::ShardConfig kInvalid;
  return s < views_.size() ? views_[s] : kInvalid;
}

bool ReplicaCore::handle_core_message(ProcessId from, const sim::AnyMessage& msg) {
  // The certification path first: it carries almost every message.
  if (handle_certification(from, msg) || fd_responder_.handle(from, msg) || cs_.handle(msg)) {
    return true;
  }
  if (const auto* pr = msg.as<Probe>()) {
    handle_probe(from, *pr);
  } else if (const auto* pra = msg.as<ProbeAck>()) {
    engine_.on_probe_ack(from, pra->shard, pra->epoch, pra->initialized);
  } else if (const auto* nc = msg.as<NewConfig>()) {
    handle_new_config(*nc);
  } else if (const auto* ns = msg.as<NewState>()) {
    handle_new_state(from, *ns);
  } else if (const auto* cc = msg.as<configsvc::ConfigChange>()) {
    handle_config_change(*cc);
  } else {
    return false;
  }
  return true;
}

// --- certification ----------------------------------------------------------

Shared<TxnMeta> ReplicaCore::meta_for(TxnId txn, const tcs::Payload& payload,
                                      ProcessId client) const {
  return TxnMeta{txn, options_.shard_map->shards_of(payload), client};
}

void ReplicaCore::certify_local(TxnId txn, Shared<tcs::Payload> payload,
                                std::function<void(tcs::Decision, Time)> cb,
                                ProcessId origin) {
  // The co-located client's id rides in the meta so a successor coordinator
  // (retry path, line 70) can still deliver the decision after this replica
  // crashed — the live coordinator itself always uses the local callback.
  start_certification(meta_for(txn, *payload, origin), &payload, std::move(cb));
}

void ReplicaCore::certify_batch_local(
    const std::vector<std::pair<TxnId, Shared<tcs::Payload>>>& batch,
    std::function<void(TxnId, tcs::Decision, Time)> cb, ProcessId origin) {
  certify_batch(batch, origin, cb);
}

template <typename Items>
void ReplicaCore::certify_batch(const Items& items, ProcessId client,
                                const std::function<void(TxnId, Decision, Time)>& cb) {
  // Same per-transaction coordinator state as start_certification, but the
  // PREPAREs of the whole batch are grouped into one message per shard
  // leader (and one run of consecutive log appends there).  Carrying the
  // client in each meta lets a successor coordinator finish *each batch
  // item independently* after a crash — without it, decisions recovered by
  // the line-70 retry path had nowhere to go for locally-submitted batches
  // and the whole batch's outcomes were lost with the coordinator.
  std::map<ShardId, PrepareBatch> per_shard;
  for (const auto& [txn, payload] : items) {
    std::function<void(Decision, Time)> local_cb;
    if (cb) local_cb = [cb, t = txn](Decision d, Time csn_ts) { cb(t, d, csn_ts); };
    start_certification(meta_for(txn, *payload, client), &payload, std::move(local_cb),
                        &per_shard);
  }
  for (auto& [s, pb] : per_shard) {
    if (pb.items.size() == 1) {
      // A lone prepare keeps the scalar vocabulary (and the scalar trace).
      rt().send_msg(id(), leader_of(s), std::move(pb.items.front()));
    } else {
      rt().send_msg(id(), leader_of(s), std::move(pb));
    }
  }
}

void ReplicaCore::start_certification(Shared<TxnMeta> meta,
                                      const Shared<tcs::Payload>* full_payload,
                                      std::function<void(tcs::Decision, Time)> local_cb,
                                      std::map<ShardId, PrepareBatch>* batch) {
  TxnId txn = meta->txn;
  // Transactions touching no shard (empty payloads) commit trivially.
  if (meta->participants.empty()) {
    decide_to_client(txn, meta->client, local_cb, Decision::kCommit, 0);
    return;
  }
  CoordState& c = coord_[txn];
  if (c.decided) return;  // late retry of an already-decided coordination
  undecided_coords_.emplace(txn, &c);
  c.meta = std::move(meta);
  c.progress.resize(c.meta->participants.size());
  if (local_cb) c.local_cb = std::move(local_cb);
  if (full_payload != nullptr) c.payload = *full_payload;
  c.last_driven = rt().now();
  // Line 2-3: send PREPARE with the shard projection to each leader.
  for (ShardId s : c.meta->participants) {
    Prepare p;
    p.txn = txn;
    if (full_payload != nullptr) {
      p.has_payload = true;
      p.payload = options_.shard_map->project(*full_payload, s);
    } else {
      p.has_payload = false;  // ⊥: retry path (line 73)
    }
    p.meta = c.meta;
    if (batch != nullptr) {
      (*batch)[s].items.push_back(std::move(p));
    } else {
      rt().send_msg(id(), leader_of(s), std::move(p));
    }
  }
}

void ReplicaCore::decide_to_client(TxnId txn, ProcessId client,
                                   const std::function<void(Decision, Time)>& cb,
                                   Decision d, Time csn_ts) {
  if (!cb && client == kNoProcess) return;  // nobody to tell
  if (observer_) observer_->on_client_decision(txn, d);
  if (cb) {
    cb(d, csn_ts);
  } else {
    rt().send_msg(id(), client, ClientDecision{txn, d, csn_ts});
  }
}

void ReplicaCore::redrive_coordinations(const std::set<TxnId>& driven_this_tick) {
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
  for (const auto& [txn, coordination] : undecided_coords_) {
    CoordState& c = *coordination;
    if (now - c.last_driven < options_.retry_timeout) continue;
    // A transaction the slot-retry pass just re-drove has last_driven == now
    // and was skipped above; this pins that no coordination is driven twice
    // within one timer tick.
    assert(driven_this_tick.count(txn) == 0 &&
           "coordination re-driven twice in one retry tick");
    c.last_driven = now;
    for (ShardId s : c.meta->participants) {
      Prepare p;
      p.txn = txn;
      p.has_payload = c.payload.has_value();
      if (c.payload) p.payload = options_.shard_map->project(*c.payload, s);
      p.meta = c.meta;
      rt().send_msg(id(), leader_of(s), std::move(p));
    }
  }
}

void ReplicaCore::retry(Slot k) {
  const LogEntry* e = log_.find(k);
  // Line 71 pre: phase[k] = prepared.
  if (e == nullptr || e->phase != Phase::kPrepared) return;
  RATC_DEBUG(name() << " retries txn" << e->meta.txn);
  // Lines 72-73: PREPARE(txn[k], ⊥) to the leaders of shards(txn[k]); this
  // replica becomes an additional coordinator for the transaction.
  start_certification(e->meta, nullptr, nullptr);
}

bool ReplicaCore::handle_certification(ProcessId from, const sim::AnyMessage& msg) {
  if (const auto* m = msg.as<CertifyRequest>()) {
    start_certification(meta_for(m->txn, *m->payload, from), &m->payload, nullptr);
  } else if (const auto* b = msg.as<CertifyBatchRequest>()) {
    certify_batch(b->items, from, nullptr);
  } else if (const auto* p = msg.as<Prepare>()) {
    handle_prepare(from, *p);
  } else if (const auto* pb = msg.as<PrepareBatch>()) {
    handle_prepare_batch(from, *pb);
  } else if (const auto* pa = msg.as<PrepareAck>()) {
    handle_prepare_ack(*pa);
  } else if (const auto* pab = msg.as<PrepareAckBatch>()) {
    handle_prepare_ack_batch(*pab);
  } else {
    return false;
  }
  return true;
}

// --- leader -------------------------------------------------------------------

void ReplicaCore::handle_prepare(ProcessId from, const Prepare& m) {
  // Line 5 pre: status = leader.
  if (status_ != Status::kLeader) return;
  reply_prepare_ack(from, prepare_txn(m));
}

void ReplicaCore::handle_prepare_batch(ProcessId from, const PrepareBatch& m) {
  if (status_ != Status::kLeader) return;  // line 5 pre, once for the batch
  PrepareAckBatch acks;
  acks.items.reserve(m.items.size());
  for (const Prepare& p : m.items) acks.items.push_back(prepare_txn(p));
  reply_prepare_ack_batch(from, std::move(acks));
}

void ReplicaCore::reply_prepare_ack(ProcessId coordinator, PrepareAck ack) {
  rt().send_msg(id(), coordinator, std::move(ack));
}

void ReplicaCore::reply_prepare_ack_batch(ProcessId coordinator, PrepareAckBatch acks) {
  rt().send_msg(id(), coordinator, std::move(acks));
}

PrepareAck ReplicaCore::prepare_txn(const Prepare& m) {
  Slot existing = log_.slot_of(m.txn);
  PrepareAck ack;
  ack.epoch = epoch_of(options_.shard);
  ack.shard = options_.shard;
  ack.txn = m.txn;
  if (existing != kNoSlot) {
    // Lines 6-7: already certified; re-send the stored result, copied out
    // of the log entry.
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
    e.meta = *m.meta;  // the leader's own copy
    // The CSN-log stamp: final for the slot's life, replayed verbatim by the
    // stored-result path above so csn(t) is stable across prepare retries.
    e.prepare_ts = rt().now();
    if (m.has_payload) {
      e.payload = *m.payload;     // line 13
      e.vote = compute_vote(next_, *m.payload);  // line 12
    } else {
      e.vote = Decision::kAbort;     // line 15
      e.payload = tcs::empty_payload();  // line 16
      if (observer_ || options_.check_certifier_index) {
        // Report the same witness sets a real vote computation would use:
        // constraint (10) of Fig. 6 pins T_s exactly even for abort votes.
        // The vote itself is line 15's protocol constant, not an index
        // computation, so only the sets are cross-checked against the flat
        // scan (the flat vote over the empty payload trivially commits).
        WitnessIndex::Witnesses w = index_.collect(log_, next_);
        check_index_sets_against_flat(next_, w);
        if (observer_) {
          observer_->on_vote_computed(options_.shard, epoch_of(options_.shard), next_,
                                      m.txn, e.vote, e.payload, std::move(w.committed),
                                      std::move(w.prepared));
        }
      }
    }
    prepared_at_[next_] = rt().now();
    // The slot's vote and payload are final for its prepared life: index it
    // (no-op for abort votes, which never enter L2).
    index_.on_prepared(log_, next_);
    if (observer_) observer_->on_slot_written(*this, next_);
    // The ack forwards the PREPARE's objects, which hold what the entry
    // now holds.
    ack.slot = next_;
    if (m.has_payload) ack.payload = m.payload;
    ack.vote = e.vote;
    ack.meta = m.meta;
    ack.prepare_ts = e.prepare_ts;
  }
  if (observer_) observer_->on_prepare_ack(*this, ack);
  return ack;
}

ReplicaCore::Witnesses ReplicaCore::collect_witnesses(Slot slot) const {
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

void ReplicaCore::check_index_against_flat(Slot slot, tcs::Decision indexed_vote,
                                           const tcs::Payload& l,
                                           const WitnessIndex::Witnesses& w) const {
  if (!options_.check_certifier_index) return;
  // Deliberately not assert(): the cross-check must fire in RelWithDebInfo
  // sweeps too, not only in -UNDEBUG builds.
  Witnesses flat = collect_witnesses(slot);
  Decision flat_vote = options_.certifier->vote(flat.l1, flat.l2, l);
  if (indexed_vote != flat_vote) {
    RATC_FATAL(name() << " witness index vote diverged at slot " << slot << ": indexed="
                      << tcs::to_string(indexed_vote) << " flat=" << tcs::to_string(flat_vote));
  }
  check_index_sets_against_flat(slot, w);
}

void ReplicaCore::check_index_sets_against_flat(
    Slot slot, const WitnessIndex::Witnesses& w) const {
  if (!options_.check_certifier_index) return;
  Witnesses flat = collect_witnesses(slot);
  if (flat.committed != w.committed || flat.prepared != w.prepared) {
    RATC_FATAL(name() << " witness index T_s/P_s sets diverged at slot " << slot);
  }
}

tcs::Decision ReplicaCore::compute_vote(Slot slot, const tcs::Payload& l) {
  // Line 12: vote = f_s(L1, l) ⊓ g_s(L2, l), through the witness index — a
  // vote touches only payloads sharing an object with l instead of the whole
  // log.  The voting slot itself is not indexed yet (on_prepared runs after
  // the vote lands in the entry), so the index covers exactly slots < slot.
  Decision vote = index_.vote(*options_.certifier, log_, l);
  WitnessIndex::Witnesses w;
  if (observer_ || options_.check_certifier_index) w = index_.collect(log_, slot);
  check_index_against_flat(slot, vote, l, w);
  if (observer_) {
    observer_->on_vote_computed(options_.shard, epoch_of(options_.shard), slot,
                                log_.find(slot)->txn, vote, l, std::move(w.committed),
                                std::move(w.prepared));
  }
  return vote;
}

// --- coordinator ----------------------------------------------------------------

bool ReplicaCore::note_prepare_ack(const PrepareAck& m) {
  // Line 19 pre: epoch[s] = e (the coordinator's view matches the ack).
  if (epoch_of(m.shard) != m.epoch) return false;
  auto it = coord_.find(m.txn);
  if (it == coord_.end() || it->second.decided) return false;
  ShardProgress* pr = progress_at(it->second, m.shard);
  if (pr == nullptr) return false;  // no PREPARE of ours went to that shard
  if (pr->have_prepare_ack && pr->epoch == m.epoch && pr->slot == m.slot) {
    return true;  // duplicate: keep existing follower acks, just re-replicate
  }
  pr->have_prepare_ack = true;
  pr->epoch = m.epoch;
  pr->slot = m.slot;
  pr->vote = m.vote;
  pr->prepare_ts = m.prepare_ts;
  pr->follower_acks.reset();
  return true;
}

void ReplicaCore::handle_prepare_ack(const PrepareAck& m) {
  if (!note_prepare_ack(m)) return;
  // Line 20 (Fig. 7 line 93): delegate replication to the coordinator —
  // ship the leader's result to the followers.
  const PrepareAck* acks[] = {&m};
  ProcessId leader = leader_of(m.shard);
  for (ProcessId f : members_of(m.shard)) {
    if (f != leader) replicate(f, acks);
  }
  check_coordination(m.txn);  // zero-follower shards complete immediately
}

void ReplicaCore::handle_prepare_ack_batch(const PrepareAckBatch& m) {
  // One replication write per follower carries the whole batch; the items
  // all come from one leader, so the follower sets agree.  Unlike the scalar
  // path, every item's coordination is checked before anything is shipped.
  std::map<ProcessId, std::vector<const PrepareAck*>> ship;
  for (const PrepareAck& item : m.items) {
    if (!note_prepare_ack(item)) continue;
    ProcessId leader = leader_of(item.shard);
    for (ProcessId f : members_of(item.shard)) {
      if (f != leader) ship[f].push_back(&item);
    }
    check_coordination(item.txn);  // zero-follower shards complete immediately
  }
  for (const auto& [f, acks] : ship) replicate(f, acks);
}

ReplicaCore::ShardProgress* ReplicaCore::progress_at(CoordState& c, ShardId s) {
  const std::vector<ShardId>& shards = c.meta->participants;
  auto it = std::find(shards.begin(), shards.end(), s);
  if (it == shards.end()) return nullptr;
  return &c.progress[static_cast<std::size_t>(it - shards.begin())];
}

ReplicaCore::ShardProgress* ReplicaCore::undecided_progress(TxnId txn, ShardId s) {
  auto it = coord_.find(txn);
  if (it == coord_.end() || it->second.decided) return nullptr;
  ShardProgress* pr = progress_at(it->second, s);
  return pr != nullptr && pr->have_prepare_ack ? pr : nullptr;
}

void ReplicaCore::note_follower_ack(ShardId s, ShardProgress& pr, ProcessId f) const {
  const std::vector<ProcessId>& members = members_of(s);
  auto it = std::find(members.begin(), members.end(), f);
  if (it != members.end()) pr.follower_acks.set(static_cast<std::size_t>(it - members.begin()));
}

void ReplicaCore::check_coordination(TxnId txn) {
  auto it = coord_.find(txn);
  if (it == coord_.end() || it->second.decided) return;
  CoordState& c = it->second;
  // Line 26: ACCEPT_ACKs from every follower of every involved shard, at
  // the coordinator's current epoch for that shard (Fig. 7 lines 96-97:
  // their NICs' ack-rdma, with the PREPARE_ACK epoch still current).
  Decision decision = Decision::kCommit;
  Time csn_ts = 0;  // csn(t).ts = max prepare stamp over the involved shards
  for (std::size_t i = 0; i < c.meta->participants.size(); ++i) {
    ShardId s = c.meta->participants[i];
    const ShardProgress& pr = c.progress[i];
    if (!pr.have_prepare_ack || pr.epoch != epoch_of(s)) return;
    ProcessId leader = leader_of(s);
    const std::vector<ProcessId>& members = members_of(s);
    for (std::size_t m = 0; m < members.size(); ++m) {
      if (members[m] != leader && !pr.follower_acks.test(m)) return;
    }
    decision = meet(decision, pr.vote);  // line 27's ⊓ fold
    csn_ts = std::max(csn_ts, pr.prepare_ts);
  }
  if (decision != Decision::kCommit) csn_ts = 0;  // aborts never enter the CSN log
  c.decided = true;  // guards re-entrancy from the client callback below
  decide_to_client(txn, c.meta->client, c.local_cb, decision, csn_ts);  // line 27
  for (std::size_t i = 0; i < c.meta->participants.size(); ++i) {
    ShardId s = c.meta->participants[i];
    if (observer_) observer_->on_decided(s, c.progress[i].slot, txn, decision);
    ship_decision(s, c.progress[i], txn, decision, csn_ts);
  }
  // The coordination is complete: shed the heavy state but keep the entry
  // as a decided tombstone — a late retry() of a still-prepared slot would
  // otherwise recreate the coordination from scratch and re-decide.
  c.progress.clear();
  c.progress.shrink_to_fit();
  c.meta = {};
  c.payload.reset();
  c.local_cb = nullptr;
  undecided_coords_.erase(txn);
}

// --- follower -------------------------------------------------------------------

void ReplicaCore::apply_decision(Slot slot, TxnId txn, tcs::Decision decision,
                                 Time csn_ts) {
  if (observer_) observer_->on_decision_applied(*this, slot, txn, decision);
  LogEntry& e = log_.at(slot);
  const bool fills_hole = e.phase == Phase::kStart;  // abort only
  if (fills_hole) e.txn = txn;
  e.dec = decision;
  e.phase = Phase::kDecided;
  e.csn_ts = csn_ts;
  prepared_at_.erase(slot);
  index_.on_decided(log_, slot);
  if (fills_hole && observer_) observer_->on_slot_written(*this, slot);
  // Advance the committed multi-version state.  A commit decision can only
  // land on a filled slot (line 26 needed this replica's ACCEPT_ACK, or its
  // NIC's ack of the one-sided ACCEPT), so the payload is present; duplicate
  // decisions re-apply the same csn, which the store skips.
  if (decision == Decision::kCommit) {
    store_.apply_at(e.payload, tcs::Csn{csn_ts, txn});
  }
}

// --- reconfiguration install ------------------------------------------------------

void ReplicaCore::take_over_log() {
  next_ = log_.max_filled();
  // The log may hold entries this process never saw individually (earlier
  // state transfers), so reindex wholesale and make sure every
  // still-prepared slot has live retry bookkeeping.
  index_.rebuild(log_);
  rebuild_snapshot_store();
  for (Slot k = 1; k <= log_.size(); ++k) {
    const LogEntry* e = log_.find(k);
    if (e != nullptr && e->phase == Phase::kPrepared && !prepared_at_.contains(k)) {
      prepared_at_[k] = rt().now();
    }
  }
  if (observer_) observer_->on_epoch_installed(*this);
}

void ReplicaCore::install_log(const ReplicaLog& log) {
  log_ = log;
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
  if (observer_) observer_->on_epoch_installed(*this);
}

// --- reconfiguration (Fig. 1 lines 33-69) ------------------------------------------

void ReplicaCore::handle_probe(ProcessId from, const Probe& m) {
  // Line 41 pre (Fig. 8 line 112): e ≥ new_epoch.
  if (m.epoch < new_epoch_) return;
  // Lines 42-44: stop processing transactions and acknowledge.
  status_ = Status::kReconfiguring;
  on_probed();
  new_epoch_ = m.epoch;
  rt().send_msg(id(), from, ProbeAck{initialized_, m.epoch, options_.shard});
}

void ReplicaCore::handle_new_config(const NewConfig& m) {
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
  take_over_log();  // line 59
  // Line 60: transfer state to the followers.
  NewState ns;
  ns.epoch = m.epoch;
  ns.members = m.members;
  ns.log = log();
  for (ProcessId p : m.members) {
    if (p != id()) rt().send_msg(id(), p, ns);
  }
  RATC_DEBUG(name() << " leads s" << options_.shard << " at epoch " << m.epoch);
}

void ReplicaCore::handle_new_state(ProcessId from, const NewState& m) {
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
  install_log(m.log);
  RATC_DEBUG(name() << " follows " << process_name(from) << " in s" << options_.shard
                    << " at epoch " << m.epoch);
}

void ReplicaCore::handle_config_change(const configsvc::ConfigChange& m) {
  // Line 68 pre: epoch[s] < e ∧ s ≠ s0.
  if (m.shard == options_.shard || m.shard >= views_.size()) return;
  configsvc::ShardConfig& v = views_[m.shard];
  if (v.epoch >= m.config.epoch) return;
  v = m.config;  // line 69
}

// --- recon::StackHooks ------------------------------------------------------------

void ReplicaCore::fetch_latest(const std::vector<ShardId>& shards,
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

void ReplicaCore::fetch_members_at(ShardId shard, Epoch epoch,
                                   std::function<void(bool, std::vector<ProcessId>)> cb) {
  cs_.get(shard, epoch, [cb](bool found, const configsvc::ShardConfig& cfg) {
    cb(found, cfg.members);
  });
}

void ReplicaCore::send_probe(ProcessId target, Epoch new_epoch) {
  rt().send_msg(id(), target, Probe{new_epoch});
}

std::vector<ProcessId> ReplicaCore::reserve_spares(ShardId shard, std::size_t n) {
  return options_.allocate_spares ? options_.allocate_spares(shard, n)
                                  : std::vector<ProcessId>{};
}

void ReplicaCore::release_spares(ShardId shard, const std::vector<ProcessId>& spares) {
  // Losing a CAS (e.g. two reconfigurers racing) must not consume the fresh
  // spares the losing proposal reserved; the engine routes them back here.
  if (options_.release_spares) options_.release_spares(shard, spares);
}

void ReplicaCore::submit(const recon::Proposal& proposal, std::function<void(bool)> done) {
  const auto& [shard, next] = *proposal.shards.begin();
  cs_.cas(shard, proposal.epoch - 1, next, std::move(done));
}

void ReplicaCore::activate(const recon::Proposal& proposal) {
  // Line 50: hand the won configuration to its new leader.
  const configsvc::ShardConfig& next = proposal.shards.begin()->second;
  rt().send_msg(id(), next.leader, NewConfig{next.epoch, next.members});
}

recon::PlacementContext ReplicaCore::placement_context(ShardId shard) {
  return options_.placement_context ? options_.placement_context(shard)
                                    : recon::PlacementContext{};
}

// --- CSN reads -------------------------------------------------------------

tcs::Csn ReplicaCore::read_watermark() const {
  // Below the smallest prepare stamp among prepared-undecided slots: any
  // commit this replica has not yet applied either sits prepared here (and
  // then its csn >= that stamp, above the watermark) or has not gathered
  // this replica's ACCEPT_ACK yet (line 26) and so is not decided anywhere.
  // prepared_at_ holds every prepared slot (each write into kPrepared adds
  // one, a state transfer rebuilds it), so only the in-flight slots are read.
  std::optional<Time> min_ts = log_.min_prepared_ts(prepared_at_);
  if (options_.check_certifier_index && min_ts != log_.scan_min_prepared_ts()) {
    RATC_FATAL(name() << " read watermark diverged from the log scan");
  }
  return tcs::watermark(min_ts, rt().now());
}

void ReplicaCore::rebuild_snapshot_store() {
  // The log replaced wholesale (state transfer) or inherited across a
  // takeover is the authoritative committed state: refile every decided
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

void ReplicaCore::arm_retry_timer() {
  if (options_.retry_timeout == 0) return;
  rt().schedule_for(id(), options_.retry_timeout, [this] {
    run_retry_tick();
    arm_retry_timer();
  });
}

void ReplicaCore::run_retry_tick() {
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

}  // namespace ratc::commit
