// The configuration service as the reliable process the paper's system
// model assumes (Sec. 3).  It serves both interfaces from one Store (see
// store.h): the per-shard one of the message-passing protocol and the
// global one of the RDMA protocol (Sec. 5).  Each request is applied on
// arrival; the reply goes out first, then the change notifications.  The
// Paxos-replicated realization is in replicated_service.h.
#pragma once

#include "configsvc/store.h"

namespace ratc::configsvc {

class SimpleConfigService : public Frontend {
 public:
  SimpleConfigService(rt::Runtime& rt, ProcessId id) : Frontend(rt, id, "cs") {}

  void on_message(ProcessId from, const sim::AnyMessage& msg) override;
};

}  // namespace ratc::configsvc
