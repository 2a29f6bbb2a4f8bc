// The configuration service's state, written once for every deployment of
// it.  The paper's f+1 protocols rest on one external service: replicas
// reconfigure through its compare_and_swap / get_last / get (Sec. 3), and
// the RDMA protocol uses the same service with the shard argument dropped
// (Sec. 5).  A Store holds an epoch-indexed log of configurations per shard,
// one log of global configurations, and a reply cache that makes every
// request take effect at most once: a request id seen before gets its first
// reply again, so a retried CAS that already won reports the win.
//
// A Frontend is a process that serves the service from its own Store.  The
// reliable single process of Sec. 3 (SimpleConfigService) applies each
// request as it arrives; each server of the Paxos-replicated group
// (CsServer, replicated_service.h) applies requests in Paxos order.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "configsvc/config.h"
#include "configsvc/messages.h"
#include "sim/process.h"

namespace ratc::configsvc {

class Store {
 public:
  /// What applying one request produced: the reply for its sender and, when
  /// a CAS stored a new configuration, the change notification for the
  /// subscribers (CONFIG_CHANGE or its global analogue).
  struct Outcome {
    sim::AnyMessage reply;
    std::optional<sim::AnyMessage> change;
  };

  /// Installs a configuration without a CAS (the pre-activated epoch-1
  /// configurations).
  void bootstrap(ShardId shard, ShardConfig config);
  void bootstrap(GlobalConfig config);

  /// The latest stored configuration; invalid if nothing is stored.
  const ShardConfig& last(ShardId shard) const;
  const GlobalConfig& last() const { return global_.last(); }

  /// Executes a request (a message request_id() recognises) once per
  /// request id; a repeated id gets the first execution's reply and no
  /// notification.
  Outcome apply(const sim::AnyMessage& request);

 private:
  /// One epoch-indexed log of configurations; the last is the highest.
  template <typename Config>
  class Log {
   public:
    const Config& last() const {
      static const Config kNone;
      return configs_.empty() ? kNone : configs_.rbegin()->second;
    }
    const Config* at(Epoch e) const {
      auto it = configs_.find(e);
      return it == configs_.end() ? nullptr : &it->second;
    }
    void store(const Config& c) { configs_[c.epoch] = c; }
    /// compare_and_swap: stores `next` iff the last epoch is `expected` and
    /// `next` is newer.
    bool cas(Epoch expected, const Config& next) {
      Epoch last_epoch = last().epoch;
      if (last_epoch != expected || next.epoch <= last_epoch) return false;
      store(next);
      return true;
    }

   private:
    std::map<Epoch, Config> configs_;
  };

  Outcome execute(const sim::AnyMessage& request);
  const Log<ShardConfig>& shard_log(ShardId shard) const;

  std::map<ShardId, Log<ShardConfig>> shards_;
  Log<GlobalConfig> global_;
  std::map<RequestId, sim::AnyMessage> replies_;
};

/// A process that serves the configuration service from its own Store.
class Frontend : public sim::Process {
 public:
  void bootstrap(ShardId shard, ShardConfig config) { store_.bootstrap(shard, std::move(config)); }
  void bootstrap(GlobalConfig config) { store_.bootstrap(std::move(config)); }

  /// Registers a process for the change notifications: CONFIG_CHANGE
  /// (Fig. 1 line 67) for per-shard CASes, GCONFIG_CHANGE for global ones.
  void subscribe(ProcessId p) { subscribers_.push_back(p); }

  const ShardConfig& last(ShardId shard) const { return store_.last(shard); }
  const GlobalConfig& last() const { return store_.last(); }

 protected:
  using Process::Process;

  /// Sends `change`, if any, to every subscriber.
  void notify(const std::optional<sim::AnyMessage>& change);

  Store store_;

 private:
  std::vector<ProcessId> subscribers_;
};

}  // namespace ratc::configsvc
