#include "commit/replica.h"

#include "commit/monitor.h"

namespace ratc::commit {

using tcs::Decision;

Replica::Replica(rt::Runtime& rt, ProcessId id, Options options)
    : ReplicaCore(rt, id, "r" + std::to_string(id) + "/s" + std::to_string(options.shard),
                  options, options.monitor),
      leader_ships_accepts_(options.leader_ships_accepts) {}

void Replica::bootstrap(Status status,
                        const std::map<ShardId, configsvc::ShardConfig>& all_views) {
  for (const auto& [s, v] : all_views) views_[s] = v;
  status_ = status;
  initialized_ = true;
  new_epoch_ = view(options_.shard).epoch;
  arm_retry_timer();
}

void Replica::bootstrap_spare(
    const std::map<ShardId, configsvc::ShardConfig>& all_views) {
  for (const auto& [s, v] : all_views) views_[s] = v;
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
  note_follower_ack(m.shard, *pr, from);
  check_coordination(m.txn);
}

void Replica::handle_decision(const DecisionMsg& m) {
  // Line 31 pre: status ∈ {leader, follower} ∧ epoch[s0] ≥ e.
  if (status_ == Status::kReconfiguring) return;
  if (view(options_.shard).epoch < m.epoch) return;
  apply_decision(m.slot, m.txn, m.decision, m.csn_ts);  // line 32
}

// --- dispatch ----------------------------------------------------------------

void Replica::on_message(ProcessId from, const sim::AnyMessage& msg) {
  // The message data path first, then everything the core handles.
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
  } else {
    handle_core_message(from, msg);
  }
}

}  // namespace ratc::commit
