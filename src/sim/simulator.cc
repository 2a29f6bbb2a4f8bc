#include "sim/simulator.h"

#include <algorithm>
#include <cassert>

#include "sim/network.h"

namespace ratc::sim {

namespace {
// Big enough that typical sweeps never regrow the heap's backing vector or
// the action pool, small enough to be negligible per Simulator.
constexpr std::size_t kInitialQueueCapacity = 1024;
}  // namespace

Simulator::Simulator(std::uint64_t seed) : rng_(seed), runtime_(*this, nullptr) {
  queue_.reserve(kInitialQueueCapacity);
  actions_.reserve(kInitialQueueCapacity);
  free_slots_.reserve(kInitialQueueCapacity);
}

Process::Process(Simulator& sim, ProcessId id, std::string name)
    : Process(sim.runtime(), id, std::move(name)) {}

void Simulator::add_process(Process* p) {
  assert(p != nullptr);
  assert(processes_.count(p->id()) == 0 && "duplicate process id");
  processes_[p->id()] = p;
}

Process* Simulator::process(ProcessId id) const {
  auto it = processes_.find(id);
  return it == processes_.end() ? nullptr : it->second;
}

void Simulator::crash(ProcessId id) { crashed_.insert(id); }

void Simulator::push_event(Time time, Action action) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(actions_.size());
    actions_.push_back(std::move(action));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    actions_[slot] = std::move(action);
  }
  queue_.push_back(Event{time, next_seq_++, slot});
  std::push_heap(queue_.begin(), queue_.end(), EventOrder{});
}

void Simulator::schedule(Duration delay, std::function<void()> fn) {
  push_event(now_ + delay, Action{.fn = std::move(fn)});
}

void Simulator::schedule_for(ProcessId owner, Duration delay, std::function<void()> fn) {
  push_event(now_ + delay, Action{.owner = owner, .fn = std::move(fn)});
}

void Simulator::schedule_delivery(Duration delay, Network& net, ProcessId from, ProcessId to,
                                  AnyMessage msg) {
  push_event(now_ + delay,
             Action{.from = from, .to = to, .net = &net, .msg = std::move(msg)});
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  std::pop_heap(queue_.begin(), queue_.end(), EventOrder{});
  const Event ev = queue_.back();
  queue_.pop_back();
  Action action = std::move(actions_[ev.slot]);
  free_slots_.push_back(ev.slot);
  assert(ev.time >= now_);
  now_ = ev.time;
  ++events_executed_;
  if (action.net != nullptr) {
    action.net->deliver(action.from, action.to, action.msg);
  } else if (action.owner == kNoProcess || crashed_.count(action.owner) == 0) {
    action.fn();
  }
  return true;
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

std::size_t Simulator::run_until(Time deadline) {
  std::size_t n = 0;
  while (!queue_.empty() && queue_.front().time <= deadline && step()) ++n;
  if (now_ < deadline) now_ = deadline;
  return n;
}

bool Simulator::run_until_pred(const std::function<bool()>& done, std::size_t max_events) {
  if (done()) return true;
  std::size_t n = 0;
  while (n < max_events && step()) {
    ++n;
    if (done()) return true;
  }
  return done();
}

}  // namespace ratc::sim
