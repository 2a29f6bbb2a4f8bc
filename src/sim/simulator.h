// Deterministic discrete-event simulator.
//
// Implements the paper's asynchronous system model: virtual time advances
// only through scheduled events; processes may crash-stop; all randomness
// comes from one seeded Rng; ties in the event queue are broken by insertion
// sequence, so a run is a pure function of its seed and inputs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "rt/sim_runtime.h"
#include "sim/message.h"
#include "sim/process.h"

namespace ratc::sim {

class Network;

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }
  Rng& rng() { return rng_; }

  /// The simulator's network-less rt::Runtime view (timers/clock/rng only;
  /// sends abort).  Networked stacks use `Network::runtime()` instead.
  rt::SimRuntime& runtime() { return runtime_; }

  /// Registers a process (non-owning; the harness owns process objects and
  /// must keep them alive for the simulator's lifetime).
  void add_process(Process* p);

  Process* process(ProcessId id) const;
  bool has_process(ProcessId id) const { return processes_.count(id) > 0; }

  /// Crash-stops a process: pending deliveries and timers for it are
  /// discarded at fire time, and it will never execute again.
  void crash(ProcessId id);
  bool crashed(ProcessId id) const { return crashed_.count(id) > 0; }

  /// Schedules `fn` to run at now()+delay regardless of process liveness.
  void schedule(Duration delay, std::function<void()> fn);

  /// Schedules `fn` to run at now()+delay unless `owner` has crashed by
  /// then.  Use for all process-local timers.
  void schedule_for(ProcessId owner, Duration delay, std::function<void()> fn);

  /// Schedules `net` to deliver `msg` from `from` to `to` at now()+delay
  /// (Network::send's hop).  The event holds the envelope itself, so a hop
  /// allocates nothing; it orders and counts like any other event.
  void schedule_delivery(Duration delay, Network& net, ProcessId from, ProcessId to,
                         AnyMessage msg);

  /// Runs events until the queue drains or `max_events` fire.
  /// Returns the number of events executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs events until `deadline` (inclusive) or queue drain.
  std::size_t run_until(Time deadline);

  /// Runs until `done()` holds (checked after each event), the queue drains,
  /// or `max_events` fire.  Returns true iff the predicate held on exit.
  bool run_until_pred(const std::function<bool()>& done, std::size_t max_events = SIZE_MAX);

  std::size_t events_executed() const { return events_executed_; }
  bool idle() const { return queue_.empty(); }

 private:
  /// What an event does: a message hop (`net` set) or a closure.
  struct Action {
    ProcessId owner = kNoProcess;  // kNoProcess => unconditional
    ProcessId from = kNoProcess;
    ProcessId to = kNoProcess;
    Network* net = nullptr;
    AnyMessage msg;
    std::function<void()> fn;
  };
  /// A heap entry: the event's (time, seq) key and the slot of its action.
  struct Event {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  // Min-heap comparator over (time, seq); seq is unique, so the order is a
  // strict total order and heap restructuring cannot reorder equal keys.
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;  // FIFO among equal times
    }
  };

  void push_event(Time time, Action action);
  bool step();

  Time now_ = kTimeZero;
  std::uint64_t next_seq_ = 0;
  std::size_t events_executed_ = 0;
  Rng rng_;
  // The heap orders small (time, seq, slot) keys with std::push_heap and
  // std::pop_heap; the actions stay put in a slot pool until they fire, so
  // restructuring the heap never moves an envelope or a closure.  step()
  // moves the action out before running it: a handler may schedule events,
  // and those may grow the pool.
  std::vector<Event> queue_;
  std::vector<Action> actions_;
  std::vector<std::uint32_t> free_slots_;
  rt::SimRuntime runtime_;
  std::unordered_map<ProcessId, Process*> processes_;
  std::unordered_set<ProcessId> crashed_;
};

}  // namespace ratc::sim
