#include "paxos/replica.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"

namespace ratc::paxos {

PaxosReplica::PaxosReplica(rt::Runtime& rt, ProcessId owner, Options options,
                           ApplyFn apply)
    : rt_(rt), owner_(owner), options_(std::move(options)), apply_(std::move(apply)) {
  assert(std::count(options_.group.begin(), options_.group.end(), owner) == 1);
  leader_hint_ = options_.initial_leader;
  if (options_.initial_leader == owner) {
    // Bootstrap: the initial leader starts with ballot (1, self), already
    // promised by everyone (all replicas start with promised_ = (0, none),
    // and will accept any higher ballot in phase 2 directly).
    leading_ = true;
    my_ballot_ = Ballot{1, owner};
    promised_ = my_ballot_;
  }
}

void PaxosReplica::submit(sim::AnyMessage cmd) {
  if (leading_) {
    propose(next_slot_++, std::move(cmd));
  } else if (electing_) {
    backlog_.push_back(std::move(cmd));
  } else if (leader_hint_ != kNoProcess && leader_hint_ != owner_) {
    rt_.send_msg(owner_, leader_hint_, SubmitCmd{std::move(cmd)});
  } else {
    backlog_.push_back(std::move(cmd));
  }
}

void PaxosReplica::start_election() {
  electing_ = true;
  leading_ = false;
  std::uint64_t round = std::max(promised_.round, my_ballot_.round) + 1;
  my_ballot_ = Ballot{round, owner_};
  phase1_responses_.clear();
  pending_.clear();
  RATC_DEBUG(process_name(owner_) << " starts election at ballot (" << my_ballot_.round
                                  << "," << my_ballot_.proposer << ")");
  for (ProcessId p : options_.group) {
    if (p == owner_) continue;
    rt_.send_msg(owner_, p, Phase1a{my_ballot_, applied_upto_});
  }
  // Self-promise.
  promised_ = my_ballot_;
  phase1_responses_[owner_] = accepted_above(applied_upto_);
  check_election();
}

bool PaxosReplica::on_message(ProcessId from, const sim::AnyMessage& msg) {
  if (const auto* m = msg.as<SubmitCmd>()) {
    handle_submit(*m);
  } else if (const auto* m1a = msg.as<Phase1a>()) {
    handle_phase1a(from, *m1a);
  } else if (const auto* m1b = msg.as<Phase1b>()) {
    handle_phase1b(from, *m1b);
  } else if (const auto* m2a = msg.as<Phase2a>()) {
    handle_phase2a(from, *m2a);
  } else if (const auto* m2b = msg.as<Phase2b>()) {
    handle_phase2b(from, *m2b);
  } else if (const auto* mc = msg.as<CommitSlot>()) {
    handle_commit(from, *mc);
  } else {
    return false;
  }
  return true;
}

void PaxosReplica::handle_submit(const SubmitCmd& m) { submit(m.cmd); }

void PaxosReplica::handle_phase1a(ProcessId from, const Phase1a& m) {
  if (m.ballot <= promised_) return;  // stale candidate; ignore
  promised_ = m.ballot;
  leading_ = false;
  electing_ = false;
  rt_.send_msg(owner_, from, Phase1b{m.ballot, accepted_above(m.applied_upto)});
}

std::map<Slot, AcceptedEntry> PaxosReplica::accepted_above(Slot prefix) const {
  return {accepted_.upper_bound(prefix), accepted_.end()};
}

void PaxosReplica::handle_phase1b(ProcessId from, const Phase1b& m) {
  if (!electing_ || m.ballot != my_ballot_) return;
  phase1_responses_[from] = m.accepted;
  check_election();
}

void PaxosReplica::check_election() {
  if (!electing_ || phase1_responses_.size() < majority()) return;

  // Won the election: adopt the highest-ballot accepted value per slot,
  // fill gaps with no-ops, then drain the backlog.  The responses hold only
  // slots above the applied prefix the candidate sent, and every slot up to
  // applied_upto_ is chosen here, so the walk starts above it.
  electing_ = false;
  leading_ = true;
  leader_hint_ = owner_;
  std::map<Slot, AcceptedEntry> best;
  Slot max_slot = chosen_.empty() ? 0 : chosen_.rbegin()->first;
  for (const auto& [p, acc] : phase1_responses_) {
    (void)p;
    for (const auto& [slot, entry] : acc) {
      auto it = best.find(slot);
      if (it == best.end() || it->second.ballot < entry.ballot) best[slot] = entry;
      max_slot = std::max(max_slot, slot);
    }
  }
  next_slot_ = max_slot + 1;
  for (Slot s = applied_upto_ + 1; s < next_slot_; ++s) {
    if (chosen_.count(s)) continue;
    auto it = best.find(s);
    if (it != best.end()) {
      propose(s, it->second.cmd);
    } else {
      propose(s, sim::AnyMessage(Noop{}));
    }
  }
  auto backlog = std::move(backlog_);
  backlog_.clear();
  for (auto& cmd : backlog) propose(next_slot_++, std::move(cmd));
  // Make the new leadership visible even when there is nothing to propose:
  // the Phase2a fan-out updates every replica's leader hint, letting them
  // forward their own backlogs (drain_backlog below).
  if (backlog.empty()) propose(next_slot_++, sim::AnyMessage(Noop{}));
}

void PaxosReplica::drain_backlog() {
  if (leading_ || electing_ || backlog_.empty()) return;
  if (leader_hint_ == kNoProcess || leader_hint_ == owner_) return;
  auto backlog = std::move(backlog_);
  backlog_.clear();
  for (auto& cmd : backlog) {
    rt_.send_msg(owner_, leader_hint_, SubmitCmd{std::move(cmd)});
  }
}

void PaxosReplica::propose(Slot slot, sim::AnyMessage cmd) {
  assert(leading_);
  Pending& p = pending_[slot];
  p.cmd = cmd;
  p.acks = {owner_};
  // Self-accept.
  accepted_[slot] = AcceptedEntry{my_ballot_, cmd};
  for (ProcessId peer : options_.group) {
    if (peer == owner_) continue;
    rt_.send_msg(owner_, peer, Phase2a{my_ballot_, slot, cmd});
  }
  if (p.acks.size() >= majority()) {
    choose(slot, cmd);
    pending_.erase(slot);
  }
}

void PaxosReplica::handle_phase2a(ProcessId from, const Phase2a& m) {
  if (m.ballot < promised_) return;
  promised_ = m.ballot;
  if (leading_ && my_ballot_ < m.ballot) leading_ = false;
  leader_hint_ = m.ballot.proposer;
  accepted_[m.slot] = AcceptedEntry{m.ballot, m.cmd};
  rt_.send_msg(owner_, from, Phase2b{m.ballot, m.slot});
  drain_backlog();
}

void PaxosReplica::handle_phase2b(ProcessId from, const Phase2b& m) {
  if (!leading_ || m.ballot != my_ballot_) return;
  auto it = pending_.find(m.slot);
  if (it == pending_.end()) return;  // already chosen
  it->second.acks.insert(from);
  if (it->second.acks.size() >= majority()) {
    sim::AnyMessage cmd = it->second.cmd;
    pending_.erase(it);
    choose(m.slot, cmd);
  }
}

void PaxosReplica::choose(Slot slot, const sim::AnyMessage& cmd) {
  if (chosen_.count(slot) == 0) {
    chosen_.emplace(slot, cmd);
    for (ProcessId peer : options_.group) {
      if (peer == owner_) continue;
      rt_.send_msg(owner_, peer, CommitSlot{my_ballot_, slot, cmd});
    }
  }
  apply_ready();
}

void PaxosReplica::handle_commit(ProcessId from, const CommitSlot& m) {
  (void)from;
  leader_hint_ = m.ballot.proposer;
  chosen_.emplace(m.slot, m.cmd);
  apply_ready();
  drain_backlog();
}

void PaxosReplica::apply_ready() {
  while (true) {
    auto it = chosen_.find(applied_upto_ + 1);
    if (it == chosen_.end()) return;
    ++applied_upto_;
    if (!it->second.is<Noop>() && apply_) apply_(applied_upto_, it->second);
  }
}

}  // namespace ratc::paxos
