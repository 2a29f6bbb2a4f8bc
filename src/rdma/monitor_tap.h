// The rdma stack's tap into the invariant monitor (commit/monitor.h): only
// what the one-sided substrate shows.  Everything else — votes, decisions,
// decision applies and epoch installs — reaches the monitor from the shared
// replica core.
//
//   * an RAccept write feeds Inv 6 and 9;
//   * its landing feeds Inv 13 and 1 and counts as the receiver's
//     acknowledgement;
//   * the configurations the global protocol disseminates (CONFIG_PREPARE)
//     and the strawman hands its new leaders (NEW_CONFIG) are registered.
#pragma once

#include "commit/monitor.h"
#include "rdma/fabric.h"
#include "rdma/messages.h"
#include "sim/network.h"

namespace ratc::rdma {

class MonitorTap : public FabricObserver, public sim::NetworkObserver {
 public:
  explicit MonitorTap(commit::Monitor& monitor) : monitor_(monitor) {}

  void on_write(Time now, ProcessId from, ProcessId to, const sim::AnyMessage& m) override {
    (void)now;
    (void)from;
    (void)to;
    for_each_accept(m, [&](const RAccept& a) {
      monitor_.on_replication_write(commit::SlotRecord::of(a));
    });
  }

  void on_landed(Time now, ProcessId from, ProcessId to, const sim::AnyMessage& m) override {
    (void)now;
    (void)from;
    for_each_accept(m, [&](const RAccept& a) {
      monitor_.on_replication_landed(to, commit::SlotRecord::of(a));
    });
  }

  void on_send(Time now, ProcessId from, ProcessId to, const sim::AnyMessage& m) override {
    (void)now;
    (void)from;
    if (const auto* cp = m.as<ConfigPrepare>()) {
      for (const auto& entry : cp->config.members) {
        monitor_.register_config(entry.first, cp->config.shard(entry.first));
      }
    } else if (const auto* nc = m.as<commit::NewConfig>()) {
      monitor_.on_new_config(to, nc->epoch, nc->members);
    }
  }

 private:
  /// A batched write lands its items back-to-back: each is observed exactly
  /// as if it had been written alone.
  template <typename F>
  static void for_each_accept(const sim::AnyMessage& m, F f) {
    if (const auto* a = m.as<RAccept>()) {
      f(*a);
    } else if (const auto* ab = m.as<RAcceptBatch>()) {
      for (const RAccept& item : ab->items) f(item);
    }
  }

  commit::Monitor& monitor_;
};

}  // namespace ratc::rdma
