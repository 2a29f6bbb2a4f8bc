// rt::Runtime implemented by the deterministic simulator — the "testing
// twin" side of the runtime seam.  A SimRuntime is embedded in every
// `sim::Network` (with the send path wired) and in every `sim::Simulator`
// (network-less, for processes that never send through the seam).
// Protocol classes take `rt::Runtime&`; simulator harnesses hand them
// `net.runtime()`.
#pragma once

#include "rt/runtime.h"

namespace ratc::sim {
class Simulator;
class Network;
}  // namespace ratc::sim

namespace ratc::rt {

class SimRuntime final : public Runtime {
 public:
  /// `net` may be null (Simulator-embedded instance); then `send` aborts.
  SimRuntime(sim::Simulator& sim, sim::Network* net) : sim_(sim), net_(net) {}

  Time now() const override;
  Rng& rng() override;
  void spawn(sim::Process* p) override;
  void crash(ProcessId id) override;
  bool crashed(ProcessId id) const override;
  void schedule(Duration delay, std::function<void()> fn) override;
  void schedule_for(ProcessId owner, Duration delay, std::function<void()> fn) override;
  void send(ProcessId from, ProcessId to, sim::AnyMessage msg) override;

  sim::Simulator& simulator() { return sim_; }
  /// Null on the Simulator-embedded instance.
  sim::Network* network() { return net_; }

 private:
  sim::Simulator& sim_;
  sim::Network* net_;
};

}  // namespace ratc::rt
