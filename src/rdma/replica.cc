#include "rdma/replica.h"

#include <cassert>

#include "commit/monitor.h"
#include "common/log.h"
#include "ctrl/messages.h"

namespace ratc::rdma {

using tcs::Decision;

Replica::Replica(rt::Runtime& rt, Fabric& fabric, ProcessId id, Options options)
    : ReplicaCore(rt, id, "rr" + std::to_string(id) + "/s" + std::to_string(options.shard),
                  options, options.monitor),
      mode_(options.mode),
      ablate_flush_(options.ablate_flush),
      fabric_(fabric) {
  fabric_.attach(
      id,
      [this](ProcessId from, const sim::AnyMessage& msg) { deliver_rdma(from, msg); },
      [this](const RdmaAck& ack) { handle_rdma_ack(ack); });
}

Epoch Replica::epoch_of(ShardId s) const {
  return mode_ == ReconfigMode::kGlobalSafe ? epoch_ : ReplicaCore::epoch_of(s);
}

ProcessId Replica::leader_of(ShardId s) const {
  if (mode_ != ReconfigMode::kGlobalSafe) return ReplicaCore::leader_of(s);
  auto it = config_.leaders.find(s);
  return it == config_.leaders.end() ? kNoProcess : it->second;
}

const std::vector<ProcessId>& Replica::members_of(ShardId s) const {
  static const std::vector<ProcessId> kNone;
  if (mode_ != ReconfigMode::kGlobalSafe) return ReplicaCore::members_of(s);
  auto it = config_.members.find(s);
  return it == config_.members.end() ? kNone : it->second;
}

void Replica::bootstrap(Status status, const configsvc::GlobalConfig& config) {
  status_ = status;
  initialized_ = true;
  epoch_ = config.epoch;
  new_epoch_ = config.epoch;
  config_ = config;
  for (const auto& [s, members] : config.members) views_[s] = config.shard(s);
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
  for (const auto& [s, members] : config.members) views_[s] = config.shard(s);
  if (mode_ == ReconfigMode::kPerShardUnsafe) {
    // No connection management in the strawman: spares accept writes too.
    for (ProcessId p : config.all_members()) {
      if (p != id()) fabric_.open(id(), p);
    }
  }
  arm_retry_timer();
}

// --- certification hooks (Fig. 7) -----------------------------------------------

void Replica::replicate(ProcessId follower,
                        std::span<const commit::PrepareAck* const> acks) {
  // Line 93: one one-sided write per follower; a batched write's single NIC
  // ack fans out to every item it carried (write_tokens_).
  std::vector<std::tuple<TxnId, ShardId, ProcessId>> entries;
  entries.reserve(acks.size());
  for (const commit::PrepareAck* ack : acks) entries.emplace_back(ack->txn, ack->shard, follower);
  std::uint64_t token;
  if (acks.size() == 1) {
    token = fabric_.send_rdma(id(), follower,
                              sim::AnyMessage(commit::accept_for<RAccept>(*acks.front())));
  } else {
    RAcceptBatch batch;
    batch.items.reserve(acks.size());
    for (const commit::PrepareAck* ack : acks) {
      batch.items.push_back(commit::accept_for<RAccept>(*ack));
    }
    token = fabric_.send_rdma(id(), follower, sim::AnyMessage(std::move(batch)));
  }
  write_tokens_[token] = std::move(entries);
}

void Replica::handle_rdma_ack(const RdmaAck& ack) {
  auto it = write_tokens_.find(ack.token);
  if (it == write_tokens_.end()) return;  // a DECISION write; nothing to track
  std::vector<std::tuple<TxnId, ShardId, ProcessId>> entries = std::move(it->second);
  write_tokens_.erase(it);
  // Lines 96-97 count ack-rdma per (transaction, shard); the write carries
  // no epoch the NIC could check.
  for (const auto& [txn, s, follower] : entries) {
    ShardProgress* pr = undecided_progress(txn, s);
    if (pr == nullptr) continue;
    note_follower_ack(s, *pr, follower);
    check_coordination(txn);
  }
}

void Replica::ship_decision(ShardId s, const ShardProgress& pr, TxnId txn,
                            Decision decision, Time csn_ts) {
  // Lines 99-100: decisions are one-sided writes too.
  RDecision d{pr.slot, txn, decision, csn_ts};
  for (ProcessId p : members_of(s)) {
    fabric_.send_rdma(id(), p, sim::AnyMessage(d));
  }
}

void Replica::deliver_rdma(ProcessId from, const sim::AnyMessage& msg) {
  (void)from;
  // Line 95: no guard — the write already landed; the CPU just records it,
  // overwriting whatever the slot held.
  if (const auto* a = msg.as<RAccept>()) {
    fill_slot(*a);
  } else if (const auto* ab = msg.as<RAcceptBatch>()) {
    // The batched write lands its items back-to-back, in order.
    for (const RAccept& item : ab->items) fill_slot(item);
  } else if (const auto* d = msg.as<RDecision>()) {
    apply_decision(d->slot, d->txn, d->decision, d->csn_ts);  // line 102
  }
}

// --- reconfiguration: the engine's hooks ----------------------------------------
//
// Both modes run the shared reconfigurer core (recon::Engine).  Safe mode
// (Fig. 8): one multi-shard attempt over the global configuration service;
// the engine waits for an initialized responder in EVERY shard (line 117)
// before proposing, and activate() stages the fabric-aware install phase
// (CONFIG_PREPARE dissemination).  Unsafe mode (the Fig. 4a strawman): the
// core's Fig. 1 per-shard attempt, with NEW_CONFIG handed straight to the
// new leader — reproducing the protocol the paper proves incorrect.

void Replica::reconfigure() {
  assert(mode_ == ReconfigMode::kGlobalSafe);
  // Line 104 pre: not already probing or installing.
  if (installing_) return;
  engine_.start({});  // shard set comes from the GCS snapshot
}

void Replica::reconfigure_shard(ShardId s) {
  assert(mode_ == ReconfigMode::kPerShardUnsafe);
  ReplicaCore::reconfigure(s);
}

void Replica::on_probed() {
  // Line 114: sever all incoming RDMA connections — the guard that the
  // unsafe variant lacks.
  if (mode_ != ReconfigMode::kGlobalSafe) return;
  fabric_.close_all(id());
  connections_.clear();
}

void Replica::fetch_latest(const std::vector<ShardId>& shards,
                           std::function<void(bool, recon::Snapshot)> cb) {
  if (mode_ != ReconfigMode::kGlobalSafe) return ReplicaCore::fetch_latest(shards, std::move(cb));
  // Lines 106-110: the global protocol probes every shard of the latest
  // stored global configuration.
  cs_.get_last([cb](const configsvc::GlobalConfig& cfg) {
    if (!cfg.valid()) {
      cb(false, {});
      return;
    }
    recon::Snapshot snap;
    snap.epoch = cfg.epoch;
    snap.members = cfg.members;
    cb(true, snap);
  });
}

void Replica::fetch_members_at(ShardId shard, Epoch epoch,
                               std::function<void(bool, std::vector<ProcessId>)> cb) {
  if (mode_ != ReconfigMode::kGlobalSafe) {
    return ReplicaCore::fetch_members_at(shard, epoch, std::move(cb));
  }
  cs_.get(epoch, [shard, cb](bool found, const configsvc::GlobalConfig& cfg) {
    auto mit = cfg.members.find(shard);
    if (!found || mit == cfg.members.end()) {
      cb(false, {});
      return;
    }
    cb(true, mit->second);
  });
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
  if (mode_ != ReconfigMode::kGlobalSafe) return ReplicaCore::submit(proposal, std::move(done));
  cs_.cas(proposal.epoch - 1, to_global(proposal), std::move(done));
}

void Replica::activate(const recon::Proposal& proposal) {
  if (mode_ != ReconfigMode::kGlobalSafe) return ReplicaCore::activate(proposal);
  // Lines 131-136 start here: disseminate CONFIG_PREPARE to the whole new
  // membership; activation (RNEW_CONFIG) waits for every ack.
  recon_config_ = to_global(proposal);
  installing_ = true;
  config_prepare_acks_.clear();
  for (ProcessId p : recon_config_.all_members()) {
    rt().send_msg(id(), p, ConfigPrepare{recon_config_.epoch, recon_config_});
  }
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
  if (!ablate_flush_) fabric_.flush(id());
  status_ = Status::kLeader;
  epoch_ = m.epoch;
  new_epoch_ = m.epoch;
  config_ = pending_config_;
  take_over_log();  // line 145
  RNewState ns;
  ns.epoch = epoch_;
  ns.log = log();
  for (ProcessId p : config_.members.at(options_.shard)) {
    if (p != id()) rt().send_msg(id(), p, ns);
  }
  open_connections_to(config_.all_members());  // line 147
  arm_connect_retry();
  RATC_DEBUG(name() << " leads s" << options_.shard << " at global epoch " << epoch_);
}

void Replica::handle_new_state(const RNewState& m) {
  // Lines 148-153.
  if (m.epoch < new_epoch_ || pending_config_.epoch != m.epoch) return;
  status_ = Status::kFollower;
  epoch_ = m.epoch;
  new_epoch_ = m.epoch;
  initialized_ = true;
  config_ = pending_config_;
  install_log(m.log);
  // Line 153 sends CONNECT only to other shards' members; we connect to all
  // members so same-shard followers can serve as coordinators for each
  // other too.
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
  rt().schedule_for(id(), kConnectRetry, [this, e = epoch_] {
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

// --- dispatch -------------------------------------------------------------------

void Replica::on_message(ProcessId from, const sim::AnyMessage& msg) {
  if (handle_core_message(from, msg)) return;
  if (const auto* cp = msg.as<ConfigPrepare>()) {
    handle_config_prepare(from, *cp);
  } else if (const auto* cpa = msg.as<ConfigPrepareAck>()) {
    handle_config_prepare_ack(from, *cpa);
  } else if (const auto* nc = msg.as<RNewConfig>()) {
    handle_new_config(*nc);
  } else if (const auto* ns = msg.as<RNewState>()) {
    handle_new_state(*ns);
  } else if (const auto* cn = msg.as<Connect>()) {
    handle_connect(from, *cn);
  } else if (const auto* cna = msg.as<ConnectAck>()) {
    handle_connect_ack(from, *cna);
  } else if (msg.as<ctrl::NudgeReconfig>() != nullptr) {
    // A reconfiguration controller suspects a member: run the global
    // reconfiguration (Fig. 8).  No-op while one is already in flight:
    // reconfigure() returns while installing_ is set, and
    // recon::Engine::start refuses while an attempt is in flight.  The
    // controller's watchdog re-nudges if nothing lands.
    if (mode_ == ReconfigMode::kGlobalSafe) reconfigure();
  }
}

}  // namespace ratc::rdma
