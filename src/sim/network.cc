#include "sim/network.h"

#include <algorithm>

#include "common/log.h"

namespace ratc::sim {

namespace {
std::uint64_t channel_key(ProcessId from, ProcessId to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}
}  // namespace

Network::Options Network::unit_delay_options() {
  Options o;
  o.delay = [](Rng&, ProcessId, ProcessId) -> Duration { return 1; };
  return o;
}

Network::Options Network::exponential_delay_options(double mean) {
  Options o;
  o.delay = [mean](Rng& rng, ProcessId, ProcessId) -> Duration {
    return rng.exponential(mean);
  };
  return o;
}

Network::Network(Simulator& sim, Options options)
    : sim_(sim), runtime_(sim, this), options_(std::move(options)) {}

ProcessTraffic::TypeCount& ProcessTraffic::count_of(const AnyMessage& msg) {
  for (TypeCount& c : by_type_) {
    if (c.type == msg.descriptor()) return c;
  }
  return by_type_.emplace_back(TypeCount{msg.descriptor()});
}

std::map<std::string, std::uint64_t> ProcessTraffic::sent_by_type() const {
  std::map<std::string, std::uint64_t> out;
  for (const TypeCount& c : by_type_) {
    if (c.sent > 0) out[c.type->name()] += c.sent;
  }
  return out;
}

std::map<std::string, std::uint64_t> ProcessTraffic::received_by_type() const {
  std::map<std::string, std::uint64_t> out;
  for (const TypeCount& c : by_type_) {
    if (c.received > 0) out[c.type->name()] += c.received;
  }
  return out;
}

const ProcessTraffic& Network::traffic(ProcessId p) const {
  static const ProcessTraffic kEmpty;
  auto it = traffic_.find(p);
  return it == traffic_.end() ? kEmpty : it->second;
}

void Network::send(ProcessId from, ProcessId to, AnyMessage msg) {
  if (sim_.crashed(from)) return;
  Time now = sim_.now();
  for (auto* obs : observers_) obs->on_send(now, from, to, msg);
  auto& t = traffic_[from];
  ++t.msgs_sent;
  t.bytes_sent += msg.wire_size();
  ++t.count_of(msg).sent;
  ++total_messages_;
  total_bytes_ += msg.wire_size();
  MessageFate fate;
  if (fault_ != nullptr) fate = fault_->on_message(now, from, to, msg);
  if (fate.drop) {
    for (auto* obs : observers_) obs->on_drop(now, from, to, msg);
    return;
  }
  Duration d = options_.delay(sim_.rng(), from, to) + fate.extra_delay;
  Time deliver_at = now + std::max<Duration>(d, 1);
  // FIFO per channel: never deliver before an earlier message on the same
  // channel.  Equal times preserve order via the event queue's sequence
  // numbers.
  Time& clock = channel_clock_[channel_key(from, to)];
  deliver_at = std::max(deliver_at, clock);
  clock = deliver_at;
  sim_.schedule_delivery(deliver_at - now, *this, from, to, std::move(msg));
}

void Network::deliver(ProcessId from, ProcessId to, const AnyMessage& msg) {
  Time now = sim_.now();
  Process* p = sim_.process(to);
  if (p == nullptr || sim_.crashed(to)) {
    for (auto* obs : observers_) obs->on_drop(now, from, to, msg);
    return;
  }
  for (auto* obs : observers_) obs->on_deliver(now, from, to, msg);
  auto& t = traffic_[to];
  ++t.msgs_received;
  t.bytes_received += msg.wire_size();
  ++t.count_of(msg).received;
  RATC_TRACE("deliver t=" << now << " " << process_name(from) << "->"
                          << process_name(to) << " " << msg.type_name());
  p->on_message(from, msg);
}

}  // namespace ratc::sim
