// Reliable-process configuration services (paper Sec. 3 assumes the CS is a
// reliable process; the Paxos-replicated realization is in
// replicated_service.h).
#pragma once

#include <map>
#include <vector>

#include "configsvc/config.h"
#include "configsvc/messages.h"
#include "sim/process.h"

namespace ratc::configsvc {

/// Per-shard configuration store used by the message-passing protocol.
class SimpleConfigService : public sim::Process {
 public:
  SimpleConfigService(rt::Runtime& rt, ProcessId id);

  /// Installs an initial configuration without message traffic (bootstrap of
  /// the pre-activated epoch-1 configurations).
  void bootstrap(ShardId shard, ShardConfig config);

  /// Registers a process to receive CONFIG_CHANGE notifications for shards
  /// other than its own (Fig. 1 line 67).
  void subscribe(ProcessId p) { subscribers_.push_back(p); }

  const ShardConfig& last(ShardId shard) const;

  void on_message(ProcessId from, const sim::AnyMessage& msg) override;

 private:
  void broadcast_change(ShardId shard, const ShardConfig& config);

  std::map<ShardId, std::map<Epoch, ShardConfig>> configs_;
  std::map<ShardId, Epoch> last_epoch_;
  std::vector<ProcessId> subscribers_;
};

/// Global configuration store used by the RDMA protocol (Sec. 5): a single
/// sequence of system-wide configurations; the interface loses its shard
/// argument, exactly as the paper describes.
class SimpleGlobalConfigService : public sim::Process {
 public:
  SimpleGlobalConfigService(rt::Runtime& rt, ProcessId id);

  void bootstrap(GlobalConfig config);

  /// Registers a process to receive GlobalConfigChange notifications
  /// whenever a CAS persists a new configuration (the Sec. 5 analogue of
  /// Fig. 1 line 67's CONFIG_CHANGE subscription).
  void subscribe(ProcessId p) { subscribers_.push_back(p); }

  const GlobalConfig& last() const { return configs_.at(last_epoch_); }

  void on_message(ProcessId from, const sim::AnyMessage& msg) override;

 private:
  std::map<Epoch, GlobalConfig> configs_;
  Epoch last_epoch_ = kNoEpoch;
  std::vector<ProcessId> subscribers_;
};

}  // namespace ratc::configsvc
