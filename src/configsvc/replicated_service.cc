#include "configsvc/replicated_service.h"

namespace ratc::configsvc {

void CsServer::on_message(ProcessId from, const sim::AnyMessage& msg) {
  if (!request_id(msg)) return;
  // Only the current leader's frontend sequences requests; other frontends
  // drop them and rely on the client's retry loop.
  if (paxos_ == nullptr || !paxos_->is_leader()) return;
  paxos_->submit(sim::AnyMessage(CsCommand{from, msg}));
}

void CsServer::apply(Slot slot, const sim::AnyMessage& cmd) {
  (void)slot;
  const auto* c = cmd.as<CsCommand>();
  if (c == nullptr) return;
  Store::Outcome out = store_.apply(c->request);
  if (!paxos_->is_leader()) return;
  notify(out.change);
  rt().send(id(), c->origin, std::move(out.reply));
}

ReplicatedConfigService::ReplicatedConfigService(sim::Simulator& sim, sim::Network& net) {
  std::vector<ProcessId> paxos_group;
  for (std::size_t i = 0; i < kNumServers; ++i) {
    paxos_group.push_back(kFirstPid + static_cast<ProcessId>(kNumServers + i));
  }
  for (std::size_t i = 0; i < kNumServers; ++i) {
    auto server =
        std::make_unique<CsServer>(net.runtime(), kFirstPid + static_cast<ProcessId>(i));
    paxos::PaxosReplica::Options popt;
    popt.group = paxos_group;
    popt.initial_leader = paxos_group[0];
    CsServer* raw = server.get();
    auto paxos = std::make_unique<paxos::PaxosReplica>(
        net.runtime(), paxos_group[i], "cs-paxos" + std::to_string(i), popt,
        [raw](Slot slot, const sim::AnyMessage& cmd) { raw->apply(slot, cmd); });
    server->attach_paxos(paxos.get());
    sim.add_process(server.get());
    sim.add_process(paxos.get());
    servers_.push_back(std::move(server));
    paxoses_.push_back(std::move(paxos));
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

void ReplicatedConfigService::crash_server(sim::Simulator& sim, std::size_t i) {
  sim.crash(servers_[i]->id());
  sim.crash(paxoses_[i]->id());
}

}  // namespace ratc::configsvc
