// The smallest host of a paxos::PaxosReplica, for the suites that drive the
// Paxos substrate on its own: paxos_test, paxos_property_test and the
// sweep's PaxosHarness.  A PaxosHost is one group member, one process, as a
// baseline shard server or a CS server is: it passes every message to its
// replica and records the value of each command the replica applies.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "paxos/replica.h"
#include "rt/runtime.h"
#include "sim/process.h"

namespace ratc::harness {

/// The command a PaxosHost group replicates.
struct PaxosCmd {
  static constexpr const char* kName = "HARNESS_CMD";
  int value = 0;
};

class PaxosHost : public sim::Process {
 public:
  PaxosHost(rt::Runtime& rt, ProcessId id, paxos::PaxosReplica::Options options)
      : Process(rt, id, "paxos" + std::to_string(id)),
        paxos_(rt, id, std::move(options), [this](Slot, const sim::AnyMessage& cmd) {
          applied_.push_back(cmd.as<PaxosCmd>()->value);
        }) {}

  void on_message(ProcessId from, const sim::AnyMessage& msg) override {
    paxos_.on_message(from, msg);
  }

  paxos::PaxosReplica& paxos() { return paxos_; }
  /// Replicates PaxosCmd{value} through this member.
  void submit(int value) { paxos_.submit(sim::AnyMessage(PaxosCmd{value})); }
  /// The values of the commands applied here, in slot order.
  const std::vector<int>& applied() const { return applied_; }

 private:
  std::vector<int> applied_;
  paxos::PaxosReplica paxos_;
};

/// Spawns an n-member group on `rt` at pids 100..100+n-1; the first leads.
inline std::vector<std::unique_ptr<PaxosHost>> spawn_paxos_group(rt::Runtime& rt,
                                                                  std::size_t n) {
  paxos::PaxosReplica::Options options;
  for (std::size_t i = 0; i < n; ++i) options.group.push_back(static_cast<ProcessId>(100 + i));
  options.initial_leader = options.group.front();
  std::vector<std::unique_ptr<PaxosHost>> group;
  for (ProcessId pid : options.group) {
    group.push_back(std::make_unique<PaxosHost>(rt, pid, options));
    rt.spawn(group.back().get());
  }
  return group;
}

}  // namespace ratc::harness
