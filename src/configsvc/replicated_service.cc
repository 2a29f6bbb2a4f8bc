#include "configsvc/replicated_service.h"

namespace ratc::configsvc {

CsServer::CsServer(rt::Runtime& rt, ProcessId id, const std::vector<ProcessId>& group)
    : Frontend(rt, id, "cs-frontend" + std::to_string(id)),
      paxos_(rt, id, {.group = group, .initial_leader = group.front()},
             [this](Slot slot, const sim::AnyMessage& cmd) { apply(slot, cmd); }) {}

void CsServer::on_message(ProcessId from, const sim::AnyMessage& msg) {
  if (paxos_.on_message(from, msg) || !request_id(msg)) return;
  // Only the current leader sequences requests; other servers drop them and
  // rely on the client's retry loop.
  if (!paxos_.is_leader()) return;
  paxos_.submit(sim::AnyMessage(CsCommand{from, msg}));
}

void CsServer::apply(Slot slot, const sim::AnyMessage& cmd) {
  (void)slot;
  const auto* c = cmd.as<CsCommand>();
  if (c == nullptr) return;
  Store::Outcome out = store_.apply(c->request);
  if (!paxos_.is_leader()) return;
  notify(out.change);
  rt().send(id(), c->origin, std::move(out.reply));
}

ReplicatedConfigService::ReplicatedConfigService(rt::Runtime& rt) {
  std::vector<ProcessId> group;
  for (std::size_t i = 0; i < kNumServers; ++i) {
    group.push_back(kFirstPid + static_cast<ProcessId>(i));
  }
  for (ProcessId pid : group) {
    servers_.push_back(std::make_unique<CsServer>(rt, pid, group));
    rt.spawn(servers_.back().get());
  }
}

std::vector<ProcessId> ReplicatedConfigService::endpoints() const {
  std::vector<ProcessId> out;
  out.reserve(servers_.size());
  for (const auto& s : servers_) out.push_back(s->id());
  return out;
}

void ReplicatedConfigService::bootstrap(ShardId shard, const ShardConfig& config) {
  for (auto& s : servers_) s->bootstrap(shard, config);
}

void ReplicatedConfigService::subscribe(ProcessId p) {
  for (auto& s : servers_) s->subscribe(p);
}

}  // namespace ratc::configsvc
