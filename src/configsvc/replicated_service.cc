#include "configsvc/replicated_service.h"

#include <cassert>

namespace ratc::configsvc {

CsServer::CsServer(rt::Runtime& rt, ProcessId id)
    : Process(rt, id, "cs-frontend" + std::to_string(id)) {}

void CsServer::bootstrap(ShardId shard, ShardConfig config) {
  assert(config.valid());
  configs_[shard][config.epoch] = config;
  last_epoch_[shard] = std::max(last_epoch_[shard], config.epoch);
}

const ShardConfig& CsServer::last(ShardId shard) const {
  static const ShardConfig kInvalid;
  auto it = last_epoch_.find(shard);
  if (it == last_epoch_.end()) return kInvalid;
  return configs_.at(shard).at(it->second);
}

void CsServer::on_message(ProcessId from, const sim::AnyMessage& msg) {
  bool is_request = msg.is<CsCas>() || msg.is<CsGetLast>() || msg.is<CsGet>();
  if (!is_request) return;
  // Only the current leader's frontend sequences requests; other frontends
  // drop them and rely on the client's retry loop.
  if (paxos_ == nullptr || !paxos_->is_leader()) return;
  paxos_->submit(sim::AnyMessage(CsCommand{from, msg}));
}

void CsServer::apply(Slot slot, const sim::AnyMessage& cmd) {
  (void)slot;
  const auto* c = cmd.as<CsCommand>();
  if (c == nullptr) return;

  // Extract the request id for reply caching.
  RequestId req_id = 0;
  if (const auto* r = c->request.as<CsCas>()) req_id = r->req_id;
  if (const auto* r = c->request.as<CsGetLast>()) req_id = r->req_id;
  if (const auto* r = c->request.as<CsGet>()) req_id = r->req_id;

  bool cas_ok = false;
  ShardId cas_shard = 0;
  auto it = replies_.find(req_id);
  sim::AnyMessage reply{0};
  if (it != replies_.end()) {
    reply = it->second;  // duplicate command: replay cached reply
  } else {
    reply = execute(c->request, &cas_ok, &cas_shard);
    replies_.emplace(req_id, reply);
    if (cas_ok && paxos_->is_leader()) {
      for (ProcessId p : subscribers_) {
        rt().send_msg(id(), p, ConfigChange{cas_shard, last(cas_shard)});
      }
    }
  }
  if (paxos_->is_leader()) rt().send(id(), c->origin, reply);
}

sim::AnyMessage CsServer::execute(const sim::AnyMessage& request, bool* cas_ok,
                                  ShardId* cas_shard) {
  if (const auto* cas = request.as<CsCas>()) {
    Epoch last = last_epoch_.count(cas->shard) ? last_epoch_[cas->shard] : kNoEpoch;
    bool ok = (last == cas->expected) && (cas->next.epoch > last);
    if (ok) {
      configs_[cas->shard][cas->next.epoch] = cas->next;
      last_epoch_[cas->shard] = cas->next.epoch;
      *cas_ok = true;
      *cas_shard = cas->shard;
    }
    return sim::AnyMessage(CsCasReply{ok, cas->req_id});
  }
  if (const auto* gl = request.as<CsGetLast>()) {
    return sim::AnyMessage(CsGetLastReply{last(gl->shard), gl->req_id});
  }
  const auto* g = request.as<CsGet>();
  CsGetReply reply;
  reply.req_id = g->req_id;
  auto sit = configs_.find(g->shard);
  if (sit != configs_.end()) {
    auto eit = sit->second.find(g->epoch);
    if (eit != sit->second.end()) {
      reply.found = true;
      reply.config = eit->second;
    }
  }
  return sim::AnyMessage(reply);
}

ReplicatedConfigService::ReplicatedConfigService(sim::Simulator& sim,
                                                 sim::Network& net, Options options) {
  std::vector<ProcessId> paxos_group;
  for (std::size_t i = 0; i < options.num_servers; ++i) {
    paxos_group.push_back(options.first_pid + static_cast<ProcessId>(options.num_servers + i));
  }
  for (std::size_t i = 0; i < options.num_servers; ++i) {
    ProcessId fid = options.first_pid + static_cast<ProcessId>(i);
    auto server = std::make_unique<CsServer>(net.runtime(), fid);
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
