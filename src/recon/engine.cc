#include "recon/engine.h"

#include <algorithm>
#include <memory>

#include "common/log.h"

namespace ratc::recon {

Engine::Engine(rt::Runtime& rt, ProcessId owner, StackHooks& hooks,
               Options options)
    : rt_(rt),
      owner_(owner),
      hooks_(hooks),
      options_(options),
      policy_(options_.policy != nullptr ? options_.policy : &default_policy_) {}

bool Engine::start(std::vector<ShardId> shards) {
  // Line 34 pre: probing = false (one attempt at a time per reconfigurer).
  if (probing_) return false;
  probing_ = true;
  ++round_;
  ++stats_.attempts;
  recon_epoch_ = kNoEpoch;  // assigned once the fetch returns
  state_.clear();
  // Line 36: read the latest configuration(s) from the CS.  The adapter may
  // veto (ok=false): nothing stored, or — for the controller — the attempt
  // became moot while syncing its view.
  hooks_.fetch_latest(shards, [this, r = round_](bool ok, Snapshot snap) {
    if (!probing_ || round_ != r) return;
    if (!ok || !snap.valid()) {
      probing_ = false;
      return;
    }
    begin_probing(snap);
  });
  return true;
}

void Engine::begin_probing(const Snapshot& snap) {
  recon_epoch_ = snap.epoch + 1;  // line 37
  // Probes freeze their receivers (line 42), so from here the shard(s) must
  // be driven to SOME epoch >= the target even if the embedder's trigger is
  // retracted; cleared by observe_epoch.
  pending_target_ = recon_epoch_;
  RATC_DEBUG("recon@" << process_name(owner_) << " probes epoch " << snap.epoch
                      << " for new epoch " << recon_epoch_);
  for (const auto& [s, members] : snap.members) {
    ShardProbe& ps = state_[s];
    ps.probed_epoch = snap.epoch;
    ps.probed_members = members;
    for (ProcessId p : members) {  // line 39
      hooks_.send_probe(p, recon_epoch_);
      ++stats_.probes_sent;
    }
  }
}

void Engine::on_probe_ack(ProcessId from, ShardId shard, Epoch epoch,
                          bool initialized) {
  // Pattern match: the ack must be for our in-flight attempt and a shard it
  // covers.
  if (!probing_ || epoch != recon_epoch_) return;
  auto it = state_.find(shard);
  if (it == state_.end()) return;
  ShardProbe& ps = it->second;
  ps.responders.insert(from);
  if (initialized) {
    // Line 45: found this shard's new leader.  The per-shard protocols
    // propose immediately; the global protocol (Fig. 8 line 117) waits for
    // a candidate in every shard.
    if (ps.leader_candidate == kNoProcess) ps.leader_candidate = from;
    if (all_candidates_found()) propose();
  } else {
    // Line 51 (non-deterministic): maybe this epoch will never be
    // operational; wait probe_patience for a positive ack, then descend.
    ps.round_has_false_ack = true;
    arm_descend_timer(shard);
  }
}

bool Engine::all_candidates_found() const {
  for (const auto& [s, ps] : state_) {
    (void)s;
    if (ps.leader_candidate == kNoProcess) return false;
  }
  return !state_.empty();
}

void Engine::arm_descend_timer(ShardId shard) {
  ShardProbe& ps = state_[shard];
  if (ps.descend_timer_armed) return;
  ps.descend_timer_armed = true;
  rt_.schedule_for(owner_, options_.probe_patience, [this, shard, r = round_] {
    if (round_ != r) return;  // a newer attempt owns the state
    auto it = state_.find(shard);
    if (it == state_.end()) return;
    it->second.descend_timer_armed = false;
    if (!probing_ || !it->second.round_has_false_ack) return;
    if (it->second.leader_candidate != kNoProcess) return;
    descend(shard);
  });
}

void Engine::descend(ShardId shard) {
  // Lines 52-55: the probed epoch is not operational and never will be;
  // continue with the preceding epoch.
  ShardProbe& ps = state_[shard];
  if (ps.probed_epoch <= 1) {
    // All shard data lost — liveness Assumption 1 violated; give up.
    RATC_WARN("recon@" << process_name(owner_)
                       << " abandoning reconfiguration: shard " << shard
                       << " has no initialized member in any epoch");
    probing_ = false;
    ++stats_.abandoned;
    return;
  }
  ps.probed_epoch -= 1;
  ps.round_has_false_ack = false;
  ++stats_.descents;
  hooks_.fetch_members_at(
      shard, ps.probed_epoch,
      [this, shard, r = round_](bool found, std::vector<ProcessId> members) {
        if (!probing_ || round_ != r) return;
        if (!found) {  // epochs are contiguous; this cannot happen
          probing_ = false;
          return;
        }
        ShardProbe& p = state_[shard];
        p.probed_members = members;
        for (ProcessId m : members) {
          hooks_.send_probe(m, recon_epoch_);
          ++stats_.probes_sent;
        }
      });
}

void Engine::propose() {
  // One proposal per attempt; the attempt itself is over (a new one may
  // start while the CAS is in flight, exactly as in the former copies).
  probing_ = false;
  auto prop = std::make_shared<Proposal>();
  prop->epoch = recon_epoch_;
  // Reservations per shard, so a loss can return them to the right pool.
  auto reserved = std::make_shared<std::map<ShardId, std::vector<ProcessId>>>();
  for (auto& [s, ps] : state_) {
    PlacementInput in;
    in.shard = s;
    in.next_epoch = recon_epoch_;
    in.leader_candidate = ps.leader_candidate;
    in.responders.assign(ps.responders.begin(), ps.responders.end());
    in.target_size = options_.target_shard_size;
    in.context = hooks_.placement_context(s);
    ShardId shard = s;
    auto allocate_fresh = [this, shard, reserved](std::size_t n) {
      std::vector<ProcessId> out = hooks_.reserve_spares(shard, n);
      stats_.spares_reserved += out.size();
      spares_pending_ += out.size();
      auto& r = (*reserved)[shard];
      r.insert(r.end(), out.begin(), out.end());
      return out;
    };
    configsvc::ShardConfig next = policy_->plan(in, allocate_fresh);
    // Clamp the paper's hard constraints (line 48): the initialized probing
    // responder must be present and leading, at the probed-from epoch + 1.
    // A policy may otherwise cost availability, never safety — the CAS
    // below and the probing protocol carry correctness.
    next.epoch = recon_epoch_;
    if (!next.has_member(ps.leader_candidate)) {
      next.members.insert(next.members.begin(), ps.leader_candidate);
    }
    next.leader = ps.leader_candidate;
    prop->shards[s] = next;
  }
  // Line 49: CAS against the epoch we started probing from.
  hooks_.submit(*prop, [this, prop, reserved](bool won) {
    if (won) {
      ++stats_.cas_wins;
      RATC_DEBUG("recon@" << process_name(owner_) << " installed epoch "
                          << prop->epoch);
      hooks_.activate(*prop);  // line 50
      // A policy may have reserved more spares than it used (e.g. a
      // trimming policy); whatever stayed out of the stored configuration
      // is still globally fresh and goes back to the pool.
      for (auto& [s, spares] : *reserved) {
        std::vector<ProcessId> unused;
        for (ProcessId sp : spares) {
          bool installed = false;
          for (const auto& [s2, cfg] : prop->shards) {
            (void)s2;
            if (cfg.has_member(sp)) {
              installed = true;
              break;
            }
          }
          if (installed) {
            ++stats_.spares_installed;
          } else {
            unused.push_back(sp);
          }
        }
        spares_pending_ -= spares.size();
        stats_.spares_released += unused.size();
        if (!unused.empty()) hooks_.release_spares(s, unused);
      }
    } else {
      // Another reconfigurer won the epoch.  The spares we reserved never
      // entered a stored configuration, so they stay globally fresh and go
      // back to the pool — leaking them would leave the shard unable to
      // backfill a later genuine crash (the PR-4 bug, fixed once, here).
      ++stats_.cas_losses;
      for (auto& [s, spares] : *reserved) {
        spares_pending_ -= spares.size();
        stats_.spares_released += spares.size();
        if (!spares.empty()) hooks_.release_spares(s, spares);
      }
    }
  });
}

void Engine::observe_epoch(ShardId shard, Epoch stored) {
  if (stored == kNoEpoch) return;
  // A newer epoch for a covered shard supersedes the in-flight attempt: the
  // winner's handover unfreezes whatever our probes froze.
  if (probing_ && recon_epoch_ != kNoEpoch && stored >= recon_epoch_ &&
      state_.count(shard) > 0) {
    probing_ = false;
  }
  if (pending_target_ != kNoEpoch && stored >= pending_target_) {
    pending_target_ = kNoEpoch;
  }
}

void Engine::abandon() {
  if (!probing_) return;
  probing_ = false;
  ++stats_.abandoned;
}

void Engine::set_pending_target(Epoch target) {
  if (target != kNoEpoch) pending_target_ = target;
}

}  // namespace ratc::recon
