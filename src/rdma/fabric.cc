#include "rdma/fabric.h"

#include <algorithm>
#include <cassert>

namespace ratc::rdma {

Fabric::Options Fabric::unit_delay_options() {
  Options o;
  o.delay = [](Rng&, ProcessId, ProcessId) -> Duration { return 1; };
  o.poll_delay = 1;
  return o;
}

Fabric::Fabric(sim::Simulator& sim, Options options)
    : sim_(sim), options_(std::move(options)) {}

void Fabric::attach(ProcessId p,
                    std::function<void(ProcessId, const sim::AnyMessage&)> deliver,
                    std::function<void(const RdmaAck&)> ack) {
  Endpoint& ep = endpoints_[p];
  ep.deliver = std::move(deliver);
  ep.ack = std::move(ack);
}

void Fabric::open(ProcessId owner, ProcessId peer) {
  Endpoint& ep = endpoints_[owner];
  ep.open_from.insert(peer);
  ++ep.generation[peer];  // new queue pair incarnation
}

void Fabric::close(ProcessId owner, ProcessId peer) {
  Endpoint& ep = endpoints_[owner];
  ep.open_from.erase(peer);
  ++ep.generation[peer];  // invalidates in-flight writes
}

void Fabric::close_all(ProcessId owner) {
  Endpoint& ep = endpoints_[owner];
  for (ProcessId peer : ep.open_from) ++ep.generation[peer];
  ep.open_from.clear();
}

bool Fabric::is_open(ProcessId owner, ProcessId peer) const {
  auto it = endpoints_.find(owner);
  return it != endpoints_.end() && it->second.open_from.count(peer) > 0;
}

std::uint64_t Fabric::send_rdma(ProcessId from, ProcessId to, sim::AnyMessage msg) {
  std::uint64_t token = next_token_++;
  if (sim_.crashed(from)) return token;
  ++writes_sent_;
  Time now = sim_.now();
  for (auto* obs : observers_) obs->on_write(now, from, to, msg);
  if (from == to) {
    // A process's write to its own memory is a synchronous local store: no
    // connection, no switch, no DMA in flight.  It lands and is visible
    // immediately — it can never straddle an epoch transition, so the
    // monitor's property (*) check applies to it unconditionally — and no
    // closed connection stops it, even after the process's PROBE_ACK.  Only
    // the NIC completion remains an event (delivered after the current
    // handler, still at the same tick).
    for (auto* obs : observers_) obs->on_landed(now, from, to, msg);
    auto it = endpoints_.find(to);
    if (it != endpoints_.end() && it->second.deliver) {
      it->second.deliver(from, msg);
    }
    sim_.schedule(0, [this, from, to, token] {
      auto sit = endpoints_.find(from);
      if (sit == endpoints_.end() || sim_.crashed(from) || !sit->second.ack) return;
      sit->second.ack(RdmaAck{to, token});
    });
    return token;
  }
  // The write targets the queue pair the sender currently holds.
  std::uint64_t gen = endpoints_[to].generation[from];
  sim::MessageFate fate;
  if (fault_ != nullptr) fate = fault_->on_message(now, from, to, msg);
  if (fate.drop) {
    ++writes_rejected_;
    for (auto* obs : observers_) obs->on_rejected(now, from, to, msg);
    return token;
  }
  Duration d = std::max<Duration>(options_.delay(sim_.rng(), from, to), 1) + fate.extra_delay;
  Time arrive = now + d;
  std::uint64_t key = (static_cast<std::uint64_t>(from) << 32) | to;
  Time& clock = channel_clock_[key];
  arrive = std::max(arrive, clock);
  clock = arrive;
  sim_.schedule(arrive - now, [this, from, to, m = std::move(msg), token, gen]() mutable {
    land(from, to, std::move(m), token, gen);
  });
  return token;
}

void Fabric::land(ProcessId from, ProcessId to, sim::AnyMessage msg,
                  std::uint64_t token, std::uint64_t gen_at_send) {
  Time now = sim_.now();
  auto it = endpoints_.find(to);
  // Self-writes never get here: send_rdma completes them synchronously.
  if (it == endpoints_.end() || sim_.crashed(to) ||
      it->second.open_from.count(from) == 0 ||
      it->second.generation[from] != gen_at_send) {
    ++writes_rejected_;
    for (auto* obs : observers_) obs->on_rejected(now, from, to, msg);
    return;  // write fails; sender gets no completion
  }
  for (auto* obs : observers_) obs->on_landed(now, from, to, msg);
  // The message is now in the receiver's memory: NIC ack to the sender
  // (no receiver CPU involvement), CPU poll later.
  it->second.buffer.emplace_back(from, std::move(msg));
  Duration d = std::max<Duration>(options_.delay(sim_.rng(), to, from), 1);
  sim_.schedule(d, [this, from, to, token] {
    auto sit = endpoints_.find(from);
    if (sit == endpoints_.end() || sim_.crashed(from) || !sit->second.ack) return;
    sit->second.ack(RdmaAck{to, token});
  });
  sim_.schedule_for(to, options_.poll_delay, [this, to] { poll_one(to); });
}

void Fabric::poll_one(ProcessId owner) {
  auto it = endpoints_.find(owner);
  if (it == endpoints_.end() || it->second.buffer.empty()) return;
  auto [from, msg] = std::move(it->second.buffer.front());
  it->second.buffer.pop_front();
  if (it->second.deliver) it->second.deliver(from, msg);
}

void Fabric::flush(ProcessId owner) {
  auto it = endpoints_.find(owner);
  if (it == endpoints_.end()) return;
  // deliver-rdma everything already acknowledged into local memory.
  while (!it->second.buffer.empty()) {
    auto [from, msg] = std::move(it->second.buffer.front());
    it->second.buffer.pop_front();
    if (it->second.deliver) it->second.deliver(from, msg);
  }
}

}  // namespace ratc::rdma
