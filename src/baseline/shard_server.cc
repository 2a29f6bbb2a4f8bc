#include "baseline/shard_server.h"

#include <cassert>
#include <cstdlib>

#include "common/log.h"

namespace ratc::baseline {

using tcs::Decision;

ShardServer::ShardServer(rt::Runtime& rt, ProcessId id, Options options)
    : Process(rt, id, "b" + std::to_string(id) + "/s" + std::to_string(options.shard)),
      options_(std::move(options)),
      paxos_(rt, id, options_.paxos,
             [this](Slot slot, const sim::AnyMessage& cmd) { apply(slot, cmd); }),
      responder_(rt, id) {
  assert(options_.shard_map != nullptr && options_.certifier != nullptr);
  if (options_.termination != TerminationMode::kClassical) {
    fd_monitor_ = std::make_unique<fd::PingMonitor>(rt, id, options_.fd);
    fd_monitor_->subscribe({.on_suspect = [this](ProcessId coordinator) {
      on_coordinator_suspected(coordinator);
    }});
    fd_monitor_->start();  // idle until the first coordinator is watched
  }
}

void ShardServer::on_message(ProcessId from, const sim::AnyMessage& msg) {
  if (paxos_.on_message(from, msg)) return;
  if (responder_.handle(from, msg)) return;
  if (fd_monitor_ && fd_monitor_->handle(from, msg)) return;
  if (const auto* c = msg.as<commit::CertifyRequest>()) {
    handle_certify(from, {c, 1});
  } else if (const auto* cb = msg.as<commit::CertifyBatchRequest>()) {
    handle_certify(from, cb->items);
  } else if (const auto* sp = msg.as<SubmitPrepare>()) {
    handle_submit_prepare(*sp);
  } else if (const auto* spb = msg.as<SubmitPrepareBatch>()) {
    handle_submit_prepare_batch(*spb);
  } else if (const auto* v = msg.as<Vote>()) {
    handle_vote(*v);
  } else if (const auto* sd = msg.as<SubmitDecide>()) {
    handle_submit_decide(*sd);
  } else if (const auto* q = msg.as<TerminationQuery>()) {
    handle_termination_query(from, *q);
  } else if (const auto* a = msg.as<TerminationAnswer>()) {
    handle_termination_answer(*a);
  }
}

void ShardServer::handle_certify(ProcessId from,
                                 std::span<const commit::CertifyRequest> items) {
  // This server coordinates each item's 2PC round.  It should be the leader
  // server of one involved shard (clients route there).  Each shard leader
  // gets one SubmitPrepareBatch (one Paxos append there), or the scalar
  // SubmitPrepare for a single item.
  std::map<ShardId, SubmitPrepareBatch> per_shard;
  for (const commit::CertifyRequest& item : items) {
    std::vector<ShardId> participants = options_.shard_map->shards_of(*item.payload);
    if (participants.empty()) {
      rt().send_msg(id(), from, commit::ClientDecision{item.txn, Decision::kCommit});
      continue;
    }
    CoordState& c = coord_[item.txn];
    c.participants = participants;
    c.client = from;
    // One CSN stamp per transaction, replicated with every shard's prepare:
    // the baseline's csn(t).ts.  Workload clients only write version v+1
    // after observing v's commit, so stamp order agrees with version order.
    c.prepare_ts = rt().now();
    for (ShardId s : participants) {
      SubmitPrepare sp;
      sp.txn = item.txn;
      sp.payload = options_.shard_map->project(*item.payload, s);
      sp.participants = participants;
      sp.client = from;
      sp.coordinator = id();
      sp.prepare_ts = c.prepare_ts;
      per_shard[s].items.push_back(std::move(sp));
    }
  }
  for (auto& [s, batch] : per_shard) {
    if (s == options_.shard) {
      handle_submit_prepare_batch(batch);  // local shard: no network hop
    } else if (batch.items.size() == 1) {
      rt().send_msg(id(), shard_leader(s), std::move(batch.items.front()));
    } else {
      rt().send_msg(id(), shard_leader(s), std::move(batch));
    }
  }
}

void ShardServer::handle_submit_prepare(const SubmitPrepare& m) {
  // Replicate the prepare through this shard's Paxos group; the vote is
  // computed when the command applies.
  CmdPrepare cmd;
  cmd.txn = m.txn;
  cmd.payload = m.payload;
  cmd.participants = m.participants;
  cmd.client = m.client;
  cmd.coordinator = m.coordinator;
  cmd.prepare_ts = m.prepare_ts;
  paxos_.submit(sim::AnyMessage(std::move(cmd)));
}

void ShardServer::handle_submit_prepare_batch(const SubmitPrepareBatch& m) {
  if (m.items.size() == 1) {
    handle_submit_prepare(m.items.front());
    return;
  }
  // The whole batch rides ONE replicated log entry: one Paxos round where
  // the unbatched path pays one per transaction.
  CmdPrepareBatch cmd;
  cmd.items.reserve(m.items.size());
  for (const SubmitPrepare& sp : m.items) {
    CmdPrepare c;
    c.txn = sp.txn;
    c.payload = sp.payload;
    c.participants = sp.participants;
    c.client = sp.client;
    c.coordinator = sp.coordinator;
    c.prepare_ts = sp.prepare_ts;
    cmd.items.push_back(std::move(c));
  }
  paxos_.submit(sim::AnyMessage(std::move(cmd)));
}

void ShardServer::handle_submit_decide(const SubmitDecide& m) {
  paxos_.submit(sim::AnyMessage(CmdDecide{m.txn, m.decision}));
}

void ShardServer::apply(Slot slot, const sim::AnyMessage& cmd) {
  (void)slot;
  if (const auto* p = cmd.as<CmdPrepare>()) {
    apply_prepare(*p);
  } else if (const auto* pb = cmd.as<CmdPrepareBatch>()) {
    // Applying a batch == applying its items in order; votes stay a pure
    // function of the applied prefix on every replica.
    for (const CmdPrepare& item : pb->items) apply_prepare(item);
  } else if (const auto* d = cmd.as<CmdDecide>()) {
    apply_decide(*d);
  } else if (const auto* r = cmd.as<CmdResolveAbort>()) {
    apply_resolve_abort(*r);
  }
}

void ShardServer::apply_prepare(const CmdPrepare& c) {
  auto [it, inserted] = txns_.emplace(c.txn, TxnState{});
  TxnState& st = it->second;
  if (!inserted && st.prepared) {
    // Duplicate prepare (e.g. coordinator retry): keep the original vote.
  } else {
    st.payload = c.payload;
    st.prepared = true;
    st.participants = c.participants;
    st.client = c.client;
    st.coordinator = c.coordinator;
    st.prepare_ts = c.prepare_ts;
    if (st.decided) {
      // A termination tombstone beat the prepare into the log: this shard
      // already promised abort to a querier (under kPaxosCommit: its vote
      // instance chose ABORT), so the vote must honour it.
      st.vote = Decision::kAbort;
    } else {
      prepared_stamps_.insert(st.prepare_ts, c.txn);
      // Deterministic vote: certify against the applied prefix, which the
      // index holds (t itself enters it only after its vote).
      st.vote = index_.vote(*options_.certifier, c.payload,
                            [this](TxnId t) -> const tcs::Payload& {
                              return txns_.find(t)->second.payload;
                            });
      if (options_.check_certifier_index) {
        // Deliberately not assert(): the cross-check must fire in
        // RelWithDebInfo sweeps too.
        Decision flat = flat_vote(c.txn, c.payload);
        if (st.vote != flat) {
          RATC_FATAL(name() << " indexed vote diverged for txn " << c.txn << ": indexed="
                            << tcs::to_string(st.vote) << " flat=" << tcs::to_string(flat));
        }
      }
      if (st.vote == Decision::kCommit) index_.add_prepared(c.txn, st.payload);
    }
  }
  // Only the current leader reports the vote to the coordinator.
  if (paxos_.is_leader()) {
    if (c.coordinator == id()) {
      handle_vote(Vote{c.txn, options_.shard, st.vote});
    } else {
      rt().send_msg(id(), c.coordinator, Vote{c.txn, options_.shard, st.vote});
    }
  }
  if (options_.termination != TerminationMode::kClassical && !st.decided &&
      c.coordinator != id()) {
    note_in_doubt(c.txn, c.coordinator);
  }
}

tcs::Decision ShardServer::flat_vote(TxnId t, const tcs::Payload& l) const {
  std::vector<const tcs::Payload*> committed, prepared;
  for (const auto& [u, other] : txns_) {
    if (other.decided && other.decision == Decision::kCommit) {
      committed.push_back(&other.payload);
    } else if (u != t && other.prepared && !other.decided && other.vote == Decision::kCommit) {
      prepared.push_back(&other.payload);
    }
  }
  return options_.certifier->vote(committed, prepared, l);
}

void ShardServer::apply_decide(const CmdDecide& c) {
  auto it = txns_.find(c.txn);
  if (it == txns_.end()) {
    // A termination-resolved abort can reach a shard that never prepared
    // (its prepare was lost with the coordinator): tombstone it so a
    // late-arriving prepare votes abort.  An unknown COMMIT cannot occur —
    // commit requires this shard's YES vote, which is emitted at prepare
    // apply time, after the prepare entered the log.
    if (c.decision != Decision::kAbort) return;
    TxnState& st = txns_[c.txn];
    st.decided = true;
    st.decision = Decision::kAbort;
    return;
  }
  if (it->second.decided) return;
  TxnState& st = it->second;
  if (st.prepared) prepared_stamps_.erase(st.prepare_ts, c.txn);
  // An undecided prepare with a commit vote is in L2 (apply_prepare).
  if (st.prepared && st.vote == Decision::kCommit) index_.remove_prepared(c.txn, st.payload);
  st.decided = true;
  st.decision = c.decision;
  if (c.decision == Decision::kCommit) {
    index_.add_committed(c.txn, st.payload);
    // Snapshot visibility is gated on the csn (the replicated coordinator
    // stamp), never on apply order: decides landing out of order across
    // shards cannot expose a non-prefix state to reads.
    store_.apply_at(st.payload, tcs::Csn{st.prepare_ts, c.txn});
  }

  // The in-doubt window (if any) closes with the decision.
  if (options_.termination != TerminationMode::kClassical) {
    auto tit = term_.find(c.txn);
    if (tit != term_.end()) tit->second.concluded = true;
    clear_in_doubt(c.txn, st.coordinator);
  }

  // Coordinator side: once the decision is durable in the coordinator's own
  // shard, reply to the client and propagate to the other shards.  Under
  // kPaxosCommit maybe_decide normally replied already; this branch then
  // only fires when termination decided before this (live) coordinator
  // collected every vote — e.g. a partition ate a vote message and a
  // peer's in-doubt timer fired.
  Time csn_ts = c.decision == Decision::kCommit ? st.prepare_ts : 0;
  auto cit = coord_.find(c.txn);
  if (cit != coord_.end() && !cit->second.replied && paxos_.is_leader()) {
    cit->second.replied = true;
    announce_decision(c.txn, c.decision, cit->second.participants,
                      cit->second.client, csn_ts);
  } else if (options_.termination != TerminationMode::kClassical &&
             paxos_.is_leader() && cit == coord_.end() && !st.participants.empty() &&
             st.participants.front() == options_.shard && st.coordinator != id()) {
    // Orphaned coordination: this shard hosted the transaction's 2PC
    // coordinator (the leader of its first participant shard), but that
    // server crashed or was deposed before replying — its volatile
    // coordinator state died with it, yet everything needed to finish the
    // round (client, participants, and now the decision) is in the
    // replicated state.  The current leader adopts the duties; duplicates
    // are harmless (the client acts on the first decision and records the
    // repeat in its history, decide application is idempotent).
    ++term_stats_.adopted_coordinations;
    announce_decision(c.txn, c.decision, st.participants, st.client, csn_ts);
  }
}

void ShardServer::apply_resolve_abort(const CmdResolveAbort& c) {
  auto [it, inserted] = txns_.emplace(c.txn, TxnState{});
  TxnState& st = it->second;
  bool tombstoned = false;
  if (!st.prepared && !st.decided) {
    // The query won the race: durably foreclose commit.  Every replica
    // applies the same choice (it depends only on the log prefix).
    st.decided = true;
    st.decision = Decision::kAbort;
    tombstoned = true;
  }
  if (!paxos_.is_leader()) return;
  if (tombstoned) {
    ++term_stats_.tombstones;
    rt().send_msg(id(), c.querier,
                  TerminationAnswer{c.txn, options_.shard, PeerTxnState::kNeverPrepared});
    ++term_stats_.answers_sent;
  } else {
    send_termination_answer(c.querier, c.txn);
  }
}

void ShardServer::handle_vote(const Vote& m) {
  auto it = coord_.find(m.txn);
  if (it == coord_.end()) return;
  CoordState& c = it->second;
  c.votes[m.shard] = m.vote;
  maybe_decide(m.txn);
}

void ShardServer::maybe_decide(TxnId t) {
  CoordState& c = coord_.at(t);
  if (c.decision_submitted) return;
  Decision d = Decision::kCommit;
  for (ShardId s : c.participants) {
    auto vit = c.votes.find(s);
    if (vit == c.votes.end()) return;
    d = meet(d, vit->second);
  }
  c.decision_submitted = true;
  if (options_.termination != TerminationMode::kPaxosCommit) {
    // Make the decision durable in the coordinator's own group first; the
    // reply and propagation happen when it applies (apply_decide).
    paxos_.submit(sim::AnyMessage(CmdDecide{t, d}));
    return;
  }
  // Paxos Commit: every vote is a chosen value (votes are emitted at apply
  // time), so the outcome, a pure function of them, is already decided in
  // the Paxos sense.  Externalize it now, in parallel with the decide; a
  // crash before the broadcast strands nothing — any terminating peer
  // re-derives the same outcome from the votes.  `replied` is set first
  // because a one-replica group applies the decide synchronously.
  c.replied = true;
  paxos_.submit(sim::AnyMessage(CmdDecide{t, d}));
  announce_decision(t, d, c.participants, c.client,
                    d == Decision::kCommit ? c.prepare_ts : 0);
}

// --- termination (kCooperative, kPaxosCommit) -----------------------------------

void ShardServer::note_in_doubt(TxnId t, ProcessId coordinator) {
  in_doubt_[coordinator].insert(t);
  if (fd_monitor_->ensure_watched(coordinator)) {
    // Already-suspected coordinator: the on_suspect edge will not fire
    // again for it, so kick this transaction's first round directly.
    start_termination_round(t);
  }
  TermState& ts = term_[t];
  if (!ts.timer_armed) {
    // Fallback for a coordinator that stays alive but unhelpful (its
    // decision message was lost, or it died and the failure detector's
    // pongs are partitioned): query after a generous in-doubt window.
    ts.timer_armed = true;
    rt().schedule_for(id(), kInDoubtTimeout,
                       [this, t] { start_termination_round(t); });
  }
}

void ShardServer::clear_in_doubt(TxnId t, ProcessId coordinator) {
  auto it = in_doubt_.find(coordinator);
  if (it == in_doubt_.end()) return;
  it->second.erase(t);
  if (it->second.empty()) {
    in_doubt_.erase(it);
    if (fd_monitor_) fd_monitor_->unwatch(coordinator);
  }
}

void ShardServer::on_coordinator_suspected(ProcessId coordinator) {
  auto it = in_doubt_.find(coordinator);
  if (it == in_doubt_.end()) return;
  std::vector<TxnId> txns(it->second.begin(), it->second.end());
  for (TxnId t : txns) start_termination_round(t);
}

void ShardServer::start_termination_round(TxnId t) {
  auto xit = txns_.find(t);
  if (xit == txns_.end() || xit->second.decided) return;
  TxnState& st = xit->second;
  TermState& ts = term_[t];
  if (ts.concluded) return;
  // The query budget is consumed only by rounds actually broadcast as
  // leader, so a replica elected mid-protocol still gets its full budget;
  // the hard cap on total fires bounds a permanently-leaderless replica's
  // retry chain so every run quiesces.
  const int hard_cap = 4 * kTerminationMaxRounds;
  if (ts.leader_rounds >= kTerminationMaxRounds || ts.rounds >= hard_cap) {
    // Give up: every reachable participant is in doubt (the all-prepared
    // window), or — the only way under kPaxosCommit — some peer stayed
    // unreachable for every round.  The transaction stays blocked.
    ts.concluded = true;
    if (paxos_.is_leader()) ++term_stats_.blocked;
    clear_in_doubt(t, st.coordinator);
    return;
  }
  ++ts.rounds;
  if (paxos_.is_leader()) {
    ++ts.leader_rounds;
    ts.answers.clear();
    // Our own durable state is one answer: a NO vote already forecloses
    // commit, and a decided record resolves outright.
    ts.answers[options_.shard] = st.vote == Decision::kAbort
                                     ? PeerTxnState::kAborted
                                     : PeerTxnState::kPrepared;
    for (ShardId s : st.participants) {
      if (s == options_.shard) continue;
      rt().send_msg(id(), shard_leader(s), TerminationQuery{t});
      ++term_stats_.queries_sent;
    }
    maybe_conclude_termination(t);
  }
  // Re-arm regardless of leadership: answers may be lost to the very fault
  // that stranded the transaction, and this replica may be elected leader
  // between rounds.
  rt().schedule_for(id(), kTerminationRetryEvery,
                     [this, t] { start_termination_round(t); });
}

void ShardServer::handle_termination_query(ProcessId from, const TerminationQuery& q) {
  auto it = txns_.find(q.txn);
  if (it == txns_.end() || (!it->second.prepared && !it->second.decided)) {
    // Never prepared here: promise abort durably (through our own log)
    // before answering; the log order arbitrates against an in-flight
    // prepare.  The leader answers when the command applies.
    paxos_.submit(sim::AnyMessage(CmdResolveAbort{q.txn, from}));
    return;
  }
  send_termination_answer(from, q.txn);
}

void ShardServer::send_termination_answer(ProcessId to, TxnId t) {
  const TxnState& st = txns_.at(t);
  PeerTxnState state;
  if (st.decided) {
    state = st.decision == Decision::kCommit ? PeerTxnState::kCommitted
                                             : PeerTxnState::kAborted;
  } else if (st.vote == Decision::kAbort) {
    // Prepared with a NO vote: the coordinator can only ever decide abort.
    state = PeerTxnState::kAborted;
  } else {
    state = PeerTxnState::kPrepared;  // in doubt
  }
  rt().send_msg(id(), to, TerminationAnswer{t, options_.shard, state});
  ++term_stats_.answers_sent;
}

void ShardServer::handle_termination_answer(const TerminationAnswer& a) {
  auto xit = txns_.find(a.txn);
  if (xit == txns_.end() || xit->second.decided) return;
  auto tit = term_.find(a.txn);
  if (tit == term_.end() || tit->second.concluded) return;
  tit->second.answers[a.shard] = a.state;
  maybe_conclude_termination(a.txn);
}

void ShardServer::maybe_conclude_termination(TxnId t) {
  const TxnState& st = txns_.at(t);
  TermState& ts = term_.at(t);
  switch (infer_termination(ts.answers, st.participants.size(), options_.termination)) {
    case TerminationOutcome::kCommit:
      resolve_in_doubt(t, Decision::kCommit);
      break;
    case TerminationOutcome::kAbort:
      resolve_in_doubt(t, Decision::kAbort);
      break;
    case TerminationOutcome::kBlocked:
      // All participants answered "in doubt".  Do not conclude yet: a peer
      // may still apply a decision that was in flight through its group
      // (retry rounds re-query); give up only when the rounds run out.
      break;
    case TerminationOutcome::kUnknown:
      break;
  }
}

void ShardServer::resolve_in_doubt(TxnId t, Decision d) {
  TermState& ts = term_.at(t);
  if (ts.concluded) return;
  ts.concluded = true;
  if (d == Decision::kCommit) {
    ++term_stats_.resolved_commits;
  } else {
    ++term_stats_.resolved_aborts;
  }
  TxnState& st = txns_.at(t);
  clear_in_doubt(t, st.coordinator);
  // Adopt the outcome: durable in our own group, propagated to the peer
  // shards (idempotent at apply), and the stranded client is answered (it
  // acts on its first decision).  A termination-resolved commit's csn is the
  // replicated coordinator stamp — the same value the dead coordinator
  // would have externalized.
  paxos_.submit(sim::AnyMessage(CmdDecide{t, d}));
  announce_decision(t, d, st.participants, st.client,
                    d == Decision::kCommit ? st.prepare_ts : 0);
}

void ShardServer::announce_decision(TxnId t, Decision d,
                                    const std::vector<ShardId>& participants,
                                    ProcessId client, Time csn_ts) {
  if (client != kNoProcess) {
    rt().send_msg(id(), client, commit::ClientDecision{t, d, csn_ts});
  }
  for (ShardId s : participants) {
    if (s == options_.shard) continue;
    rt().send_msg(id(), shard_leader(s), SubmitDecide{t, d});
  }
}

tcs::Csn ShardServer::read_watermark() const {
  // Any future commit of a prepared-undecided transaction lands at its
  // replicated coordinator stamp, so the watermark stays below the smallest
  // such stamp.  A transaction whose prepare is chosen but not yet applied
  // here cannot gate: can_serve_reads() requires a caught-up leader, and a
  // commit needs this shard's vote, which only the leader emits at
  // prepare-apply time — its decision is externalized after the read.
  return tcs::watermark(prepared_stamps_.min(), rt().now());
}

bool ShardServer::has_prepared(TxnId t) const {
  auto it = txns_.find(t);
  return it != txns_.end() && it->second.prepared;
}

bool ShardServer::has_decided(TxnId t) const {
  auto it = txns_.find(t);
  return it != txns_.end() && it->second.decided;
}

}  // namespace ratc::baseline
