// Heartbeat-based failure detection.
//
// The paper (Sec. 3) says "reconfiguration is initiated by a replica when
// it suspects another replica of failing" without prescribing a mechanism.
// This module supplies one: a ping/pong monitor embeddable in any process.
// In the simulator's reliable network, a peer is suspected iff it actually
// crashed (after the timeout) — an eventually-perfect detector.
//
//  * fd::Responder — drop-in pong responder for monitored processes.
//  * fd::PingMonitor — sends pings on a period, suspects after a silence
//    threshold, and notifies registered subscribers once per suspicion edge
//    and once per recovery (a suspected peer answering again).  Ticking
//    pauses while no peer is watched (and resumes on the next watch), so an
//    idle monitor never keeps the simulator's event queue alive — embedders
//    can run the simulation to quiescence.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/types.h"
#include "rt/runtime.h"
#include "sim/message.h"

namespace ratc::fd {

struct Ping {
  static constexpr const char* kName = "FD_PING";
  std::uint64_t seq = 0;
};

struct Pong {
  static constexpr const char* kName = "FD_PONG";
  std::uint64_t seq = 0;
};

/// Embed in a monitored process: answers pings.  Returns true if consumed.
class Responder {
 public:
  Responder(rt::Runtime& rt, ProcessId owner) : rt_(rt), owner_(owner) {}

  bool handle(ProcessId from, const sim::AnyMessage& msg) {
    const auto* ping = msg.as<Ping>();
    if (ping == nullptr) return false;
    rt_.send_msg(owner_, from, Pong{ping->seq});
    return true;
  }

 private:
  rt::Runtime& rt_;
  ProcessId owner_;
};

/// Embed in a monitoring process: pings watched peers periodically and
/// reports suspicions.
class PingMonitor {
 public:
  struct Options {
    Duration ping_every = 20;
    Duration suspect_after = 50;  ///< silence threshold
  };

  PingMonitor(rt::Runtime& rt, ProcessId owner, Options options)
      : rt_(rt), owner_(owner), options_(options) {}

  PingMonitor(rt::Runtime& rt, ProcessId owner)
      : PingMonitor(rt, owner, Options{}) {}

  /// Registered suspicion/recovery callbacks.  on_suspect fires once per
  /// suspicion edge (a watched peer crossing the silence threshold);
  /// on_recover fires when a suspected peer answers a ping again (the
  /// spurious-suspicion retraction of an eventually-perfect detector).
  struct Callbacks {
    std::function<void(ProcessId)> on_suspect;
    std::function<void(ProcessId)> on_recover;
  };
  using SubscriptionId = std::uint64_t;

  SubscriptionId subscribe(Callbacks cbs) {
    SubscriptionId id = next_subscription_++;
    subscribers_[id] = std::move(cbs);
    return id;
  }

  void unsubscribe(SubscriptionId id) { subscribers_.erase(id); }

  void watch(ProcessId peer) {
    watched_[peer] = rt_.now();
    suspected_.erase(peer);
    if (started_ && !ticking_) {
      ticking_ = true;
      tick();
    }
  }

  /// Watches `peer` unless already watched (a plain watch() would reset an
  /// accumulated silence window and retract an existing suspicion).
  /// Returns whether `peer` is currently suspected — the caller's cue that
  /// the on_suspect edge has already fired and will not fire again.
  bool ensure_watched(ProcessId peer) {
    if (!watching(peer)) watch(peer);
    return suspects(peer);
  }

  void unwatch(ProcessId peer) {
    watched_.erase(peer);
    suspected_.erase(peer);
  }

  bool watching(ProcessId peer) const { return watched_.count(peer) > 0; }
  bool suspects(ProcessId peer) const { return suspected_.count(peer) > 0; }

  void start() {
    if (started_) return;
    started_ = true;
    if (!watched_.empty()) {
      ticking_ = true;
      tick();
    }
  }

  /// The owner forwards incoming messages; returns true if consumed.
  bool handle(ProcessId from, const sim::AnyMessage& msg) {
    const auto* pong = msg.as<Pong>();
    if (pong == nullptr) return false;
    auto it = watched_.find(from);
    if (it != watched_.end()) {
      it->second = rt_.now();
      if (suspected_.erase(from) > 0) {  // spurious suspicion retracted
        notify(from, &Callbacks::on_recover);
      }
    }
    return true;
  }

 private:
  /// Callbacks may subscribe/unsubscribe (mutating subscribers_) while a
  /// notification is being dispatched, so iterate over a snapshot of the
  /// subscription IDS and re-validate each before invoking:
  ///  * a subscriber unregistered mid-dispatch (by itself or by an earlier
  ///    callback) must NOT fire — its owner may already be torn down, and a
  ///    snapshot of the std::functions would still call it;
  ///  * the function object is copied before the call, because a callback
  ///    that unsubscribes *itself* destroys the stored std::function it is
  ///    currently executing (iterator/self invalidation);
  ///  * subscribers added mid-dispatch never see the in-flight edge.
  void notify(ProcessId peer, std::function<void(ProcessId)> Callbacks::* which) {
    std::vector<SubscriptionId> ids;
    ids.reserve(subscribers_.size());
    for (const auto& [id, cbs] : subscribers_) {
      (void)cbs;
      ids.push_back(id);
    }
    for (SubscriptionId id : ids) {
      auto it = subscribers_.find(id);
      if (it == subscribers_.end()) continue;  // unsubscribed mid-dispatch
      auto fn = it->second.*which;             // copy: may unsubscribe itself
      if (fn) fn(peer);
    }
  }

  void tick() {
    if (watched_.empty()) {
      ticking_ = false;  // pause; the next watch() resumes
      return;
    }
    // Callbacks may watch/unwatch (mutating watched_), so collect suspects
    // first and fire after the iteration.
    std::vector<ProcessId> newly_suspected;
    for (auto& [peer, last_heard] : watched_) {
      rt_.send_msg(owner_, peer, Ping{seq_++});
      if (rt_.now() - last_heard >= options_.suspect_after &&
          suspected_.insert(peer).second) {
        newly_suspected.push_back(peer);
      }
    }
    for (ProcessId peer : newly_suspected) {
      notify(peer, &Callbacks::on_suspect);
    }
    rt_.schedule_for(owner_, options_.ping_every, [this] { tick(); });
  }

  rt::Runtime& rt_;
  ProcessId owner_;
  Options options_;
  std::map<ProcessId, Time> watched_;
  std::set<ProcessId> suspected_;
  std::map<SubscriptionId, Callbacks> subscribers_;
  SubscriptionId next_subscription_ = 1;
  std::uint64_t seq_ = 0;
  bool started_ = false;
  bool ticking_ = false;
};

}  // namespace ratc::fd
