#include "ctrl/recon_controller.h"

#include <algorithm>

#include "commit/messages.h"
#include "common/log.h"
#include "ctrl/messages.h"

namespace ratc::ctrl {

ReconController::ReconController(rt::Runtime& rt, ProcessId id, Options options)
    : Process(rt, id, "ctrl/s" + std::to_string(options.shard)),
      options_(std::move(options)),
      cs_(rt, id, options_.cs_endpoints),
      fd_(rt, id, options_.tuning.fd),
      engine_(rt, id, *this,
              {.target_shard_size = options_.target_shard_size,
               .probe_patience = kProbePatience,
               .policy = options_.placement_policy}),
      backoff_(kBackoffInitial) {
  fd_.subscribe({.on_suspect = [this](ProcessId p) { on_suspect(p); },
                 .on_recover = [this](ProcessId p) { on_recover(p); }});
}

void ReconController::bootstrap(const configsvc::ShardConfig& view) {
  view_ = view;
  for (ProcessId p : view_.members) fd_.watch(p);
  fd_.start();
}

void ReconController::bootstrap_global(const configsvc::GlobalConfig& config) {
  gview_ = config;
  bootstrap(config.shard(options_.shard));
}

ReconController::Stats ReconController::stats() const {
  Stats s;
  s.suspicions = suspicions_;
  s.recoveries = recoveries_;
  s.attempts = attempts_;
  s.attempts_abandoned = attempts_abandoned_;
  s.epochs_initiated = engine_.stats().cas_wins;
  s.cas_losses = engine_.stats().cas_losses;
  s.nudges = nudges_;
  return s;
}

// --- trigger plumbing ---------------------------------------------------------

void ReconController::on_suspect(ProcessId peer) {
  ++suspicions_;
  suspects_.insert(peer);
  RATC_DEBUG(name() << " suspects " << process_name(peer));
  maybe_act();
}

void ReconController::on_recover(ProcessId peer) {
  ++recoveries_;
  suspects_.erase(peer);
  RATC_DEBUG(name() << " retracts suspicion of " << process_name(peer));
}

bool ReconController::have_live_grievance() const {
  for (ProcessId p : view_.members) {
    if (suspects_.count(p) > 0) return true;
  }
  return false;
}

void ReconController::maybe_act() {
  // Every trigger funnels here and re-validates: a suspicion retracted (or
  // reconfigured away) before the backoff window elapsed costs nothing.
  // An unresolved attempt (the engine's pending target) must be driven to
  // completion regardless — its probes have already frozen replicas.
  if (!have_live_grievance() && engine_.pending_target() == kNoEpoch) return;
  if (engine_.in_flight()) return;  // attempt in flight; its watchdog re-checks
  Time now = rt().now();
  if (now < next_allowed_) {
    if (!retry_armed_) {
      retry_armed_ = true;
      rt().schedule_for(id(), next_allowed_ - now, [this] {
        retry_armed_ = false;
        maybe_act();
      });
    }
    return;
  }
  start_attempt();
}

void ReconController::start_attempt() {
  Time now = rt().now();
  if (last_attempt_at_ != 0 &&
      now - last_attempt_at_ >= kBackoffResetAfter) {
    backoff_ = kBackoffInitial;  // new incident, fresh budget
  }
  last_attempt_at_ = now;
  next_allowed_ = now + backoff_;
  backoff_ = std::min(backoff_ * 2, kBackoffMax);
  ++attempts_;
  ++round_;
  arm_watchdog();
  if (options_.mode == Mode::kDelegateGlobal) {
    nudge();
  } else {
    engine_.start({options_.shard});
  }
}

void ReconController::arm_watchdog() {
  rt().schedule_for(id(), kAttemptTimeout, [this, r = round_] {
    if (round_ != r) return;  // a newer attempt owns the state
    if (engine_.in_flight()) {
      // Probes swallowed (e.g. every probed member crashed or partitioned
      // away) or the CS unreachable: abandon and retry under backoff.  The
      // engine keeps the pending target, so maybe_act keeps re-driving the
      // frozen shard even after the suspicion is retracted.
      engine_.abandon();
      ++attempts_abandoned_;
    }
    // Also covers the stuck-epoch case: a CAS-won configuration whose
    // leader died before activation leaves its members suspect, so the
    // grievance re-check below starts a fresh attempt that descends past
    // the dead epoch.
    maybe_act();
  });
}

// --- view tracking ------------------------------------------------------------

void ReconController::adopt_view(const configsvc::ShardConfig& next) {
  if (!next.valid() || next.epoch <= view_.epoch) return;
  // Someone (us, a peer controller, or a replica) installed a newer epoch:
  // an in-flight probe for an epoch it supersedes is moot, and any
  // unresolved attempt aiming at or below it is resolved — the winner's
  // handover unfreezes whatever our probes froze.
  engine_.observe_epoch(options_.shard, next.epoch);
  for (ProcessId p : view_.members) {
    if (!next.has_member(p)) {
      fd_.unwatch(p);
      suspects_.erase(p);
    }
  }
  view_ = next;
  // ensure_watched keeps the silence window of carried-over members: a
  // suspect that survived into the new configuration stays suspect.
  for (ProcessId p : view_.members) fd_.ensure_watched(p);
  maybe_act();
}

void ReconController::handle_config_change(const configsvc::ConfigChange& m) {
  if (m.shard != options_.shard) return;
  adopt_view(m.config);
}

void ReconController::handle_global_config_change(
    const configsvc::GlobalConfigChange& m) {
  if (!m.config.valid() || m.config.epoch <= gview_.epoch) return;
  gview_ = m.config;
  adopt_view(m.config.shard(options_.shard));
}

// --- recon::StackHooks (kPerShardCas) -----------------------------------------

void ReconController::fetch_latest(const std::vector<ShardId>& shards,
                                   std::function<void(bool, recon::Snapshot)> cb) {
  (void)shards;  // one-shard attempts only
  cs_.get_last(options_.shard, [this, cb](const configsvc::ShardConfig& cfg) {
    if (!cfg.valid()) {
      cb(false, {});
      return;
    }
    // The read may reveal an epoch we had not heard about (e.g. our
    // CONFIG_CHANGE was delayed): sync the view and re-validate before
    // freezing anyone with probes.
    adopt_view(cfg);
    if (!engine_.in_flight()) return;  // adoption resolved the attempt
    if (!have_live_grievance() && engine_.pending_target() == kNoEpoch) {
      cb(false, {});
      return;
    }
    recon::Snapshot snap;
    snap.epoch = cfg.epoch;
    snap.members[options_.shard] = cfg.members;
    cb(true, snap);
  });
}

void ReconController::fetch_members_at(
    ShardId shard, Epoch epoch,
    std::function<void(bool, std::vector<ProcessId>)> cb) {
  cs_.get(shard, epoch, [cb](bool found, const configsvc::ShardConfig& cfg) {
    cb(found, cfg.members);
  });
}

void ReconController::send_probe(ProcessId target, Epoch new_epoch) {
  rt().send_msg(id(), target, commit::Probe{new_epoch});
}

std::vector<ProcessId> ReconController::reserve_spares(ShardId shard,
                                                       std::size_t n) {
  return options_.allocate_spares ? options_.allocate_spares(shard, n)
                                  : std::vector<ProcessId>{};
}

void ReconController::release_spares(ShardId shard,
                                     const std::vector<ProcessId>& spares) {
  if (options_.release_spares) options_.release_spares(shard, spares);
}

void ReconController::submit(const recon::Proposal& proposal,
                             std::function<void(bool)> done) {
  cs_.cas(options_.shard, proposal.epoch - 1, proposal.shards.at(options_.shard),
          std::move(done));
}

void ReconController::activate(const recon::Proposal& proposal) {
  const configsvc::ShardConfig& next = proposal.shards.at(options_.shard);
  RATC_DEBUG(name() << " installed " << next.to_string());
  rt().send_msg(id(), next.leader, commit::NewConfig{next.epoch, next.members});
}

recon::PlacementContext ReconController::placement_context(ShardId shard) {
  recon::PlacementContext ctx =
      options_.placement_context ? options_.placement_context(shard)
                                 : recon::PlacementContext{};
  ctx.suspected.insert(suspects_.begin(), suspects_.end());
  return ctx;
}

// --- kDelegateGlobal ----------------------------------------------------------

void ReconController::nudge() {
  // Prefer a live-looking member of our own shard; with the whole shard
  // suspect, fall back to members of other shards (any process may run the
  // global reconfiguration).  Round-robin so a crashed first choice does
  // not absorb every retry.
  std::vector<ProcessId> candidates;
  for (ProcessId p : view_.members) {
    if (suspects_.count(p) == 0) candidates.push_back(p);
  }
  if (candidates.empty()) {
    for (const auto& [s, members] : gview_.members) {
      if (s == options_.shard) continue;
      for (ProcessId p : members) candidates.push_back(p);
    }
  }
  if (candidates.empty()) return;  // nothing dispatched: no pending target
  ++nudges_;
  // Unresolved until a newer global epoch is observed: a nudged replica
  // that dies mid-probe would otherwise leave its probed victims frozen
  // with nobody retrying (the watchdog re-nudges while this is set).
  if (gview_.valid()) engine_.set_pending_target(gview_.epoch + 1);
  ProcessId target = candidates[nudge_rr_++ % candidates.size()];
  RATC_DEBUG(name() << " nudges " << process_name(target));
  rt().send_msg(id(), target, NudgeReconfig{options_.shard, view_.epoch});
}

// --- dispatch -----------------------------------------------------------------

void ReconController::on_message(ProcessId from, const sim::AnyMessage& msg) {
  if (cs_.handle(msg)) return;
  if (fd_.handle(from, msg)) return;
  if (const auto* pa = msg.as<commit::ProbeAck>()) {
    engine_.on_probe_ack(from, pa->shard, pa->epoch, pa->initialized);
  } else if (const auto* cc = msg.as<configsvc::ConfigChange>()) {
    handle_config_change(*cc);
  } else if (const auto* gc = msg.as<configsvc::GlobalConfigChange>()) {
    handle_global_config_change(*gc);
  }
}

}  // namespace ratc::ctrl
