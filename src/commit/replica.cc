#include "commit/replica.h"

#include "commit/monitor.h"
#include "common/log.h"

namespace ratc::commit {

using tcs::Decision;

Replica::Replica(rt::Runtime& rt, ProcessId id, Options options)
    : ReplicaCore(rt, id, "r" + std::to_string(id) + "/s" + std::to_string(options.shard),
                  options, options.monitor),
      leader_ships_accepts_(options.leader_ships_accepts),
      monitor_(options.monitor),
      cs_(rt, id, options_.cs_endpoints) {}

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

// --- certification hooks ------------------------------------------------------

void Replica::reply_prepare_ack(ProcessId coordinator, PrepareAck ack) {
  if (!leader_ships_accepts_) {
    ReplicaCore::reply_prepare_ack(coordinator, std::move(ack));
    return;
  }
  // Ablation: leader-driven replication — the leader fans the ACCEPT out
  // itself; followers acknowledge to the coordinator.
  rt().send_msg(id(), coordinator, ack);
  Accept acc = accept_for<Accept>(ack);
  acc.coordinator = coordinator;
  for (ProcessId f : view(options_.shard).followers()) {
    rt().send_msg(id(), f, acc);
  }
}

void Replica::reply_prepare_ack_batch(ProcessId coordinator, PrepareAckBatch acks) {
  if (!leader_ships_accepts_) {
    ReplicaCore::reply_prepare_ack_batch(coordinator, std::move(acks));
    return;
  }
  std::map<ProcessId, AcceptBatch> ship;  // leader-driven ablation, as above
  for (const PrepareAck& ack : acks.items) {
    Accept acc = accept_for<Accept>(ack);
    acc.coordinator = coordinator;
    for (ProcessId f : view(options_.shard).followers()) {
      ship[f].items.push_back(acc);
    }
  }
  rt().send_msg(id(), coordinator, std::move(acks));
  for (auto& [f, batch] : ship) rt().send_msg(id(), f, std::move(batch));
}

void Replica::replicate(ProcessId follower, std::span<const PrepareAck* const> acks) {
  // In the leader-driven ablation the leader already fanned the ACCEPTs out.
  if (leader_ships_accepts_) return;
  if (acks.size() == 1) {
    rt().send_msg(id(), follower, accept_for<Accept>(*acks.front()));
    return;
  }
  AcceptBatch batch;
  batch.items.reserve(acks.size());
  for (const PrepareAck* ack : acks) batch.items.push_back(accept_for<Accept>(*ack));
  rt().send_msg(id(), follower, std::move(batch));
}

void Replica::ship_decision(ShardId s, const ShardProgress& pr, TxnId txn,
                            Decision decision, Time csn_ts) {
  // Lines 28-29: persist the decision at every member, at the view's epoch.
  const configsvc::ShardConfig& v = view(s);
  for (ProcessId p : v.members) {
    rt().send_msg(id(), p, DecisionMsg{v.epoch, s, pr.slot, txn, decision, csn_ts});
  }
}

// --- follower and coordinator ---------------------------------------------------

bool Replica::apply_accept(ProcessId from, const Accept& m, AcceptAck* ack,
                           ProcessId* coordinator) {
  // Line 22 pre: status = follower ∧ epoch[s0] = e.  This guard is what the
  // RDMA variant loses (Sec. 5) — see rdma/replica.cc.
  if (status_ != Status::kFollower) return false;
  if (view(options_.shard).epoch != m.epoch) return false;
  // Line 24 (the paper writes `next`; the intended index is k): only an
  // empty slot takes the leader's result.
  const LogEntry* e = log().find(m.slot);
  if (e == nullptr || !e->filled()) fill_slot(m);
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
  ShardProgress* pr = undecided_progress(m.txn, m.shard);
  // Only acks matching the epoch/slot we replicated count (line 26 requires
  // acks at epoch[s]).
  if (pr == nullptr || !pr->have_prepare_ack || pr->epoch != m.epoch ||
      pr->slot != m.slot) {
    return;
  }
  pr->follower_acks.insert(from);
  check_coordination(m.txn);
}

void Replica::handle_decision(const DecisionMsg& m) {
  // Line 31 pre: status ∈ {leader, follower} ∧ epoch[s0] ≥ e.
  if (status_ == Status::kReconfiguring) return;
  if (view(options_.shard).epoch < m.epoch) return;
  apply_decision(m.slot, m.txn, m.decision, m.csn_ts);  // line 32
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

void Replica::handle_new_config(const NewConfig& m) {
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
  if (monitor_) monitor_->on_epoch_installed(*this);
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
  install_log(m.log);
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

// --- dispatch ----------------------------------------------------------------

void Replica::on_message(ProcessId from, const sim::AnyMessage& msg) {
  if (cs_.handle(msg)) return;
  if (fd_responder_.handle(from, msg)) return;
  if (handle_certification(from, msg)) return;
  if (const auto* a = msg.as<Accept>()) {
    handle_accept(from, *a);
  } else if (const auto* ab = msg.as<AcceptBatch>()) {
    handle_accept_batch(from, *ab);
  } else if (const auto* aa = msg.as<AcceptAck>()) {
    handle_accept_ack(from, *aa);
  } else if (const auto* aab = msg.as<AcceptAckBatch>()) {
    handle_accept_ack_batch(from, *aab);
  } else if (const auto* d = msg.as<DecisionMsg>()) {
    handle_decision(*d);
  } else if (const auto* pr = msg.as<Probe>()) {
    handle_probe(from, *pr);
  } else if (const auto* pra = msg.as<ProbeAck>()) {
    engine_.on_probe_ack(from, pra->shard, pra->epoch, pra->initialized);
  } else if (const auto* nc = msg.as<NewConfig>()) {
    handle_new_config(*nc);
  } else if (const auto* ns = msg.as<NewState>()) {
    handle_new_state(from, *ns);
  } else if (const auto* cc = msg.as<configsvc::ConfigChange>()) {
    handle_config_change(*cc);
  }
}

}  // namespace ratc::commit
