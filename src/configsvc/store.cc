#include "configsvc/store.h"

#include <cassert>

namespace ratc::configsvc {

void Store::bootstrap(ShardId shard, ShardConfig config) {
  assert(config.valid());
  shards_[shard].store(config);
}

void Store::bootstrap(GlobalConfig config) {
  assert(config.valid());
  global_.store(config);
}

const Store::Log<ShardConfig>& Store::shard_log(ShardId shard) const {
  static const Log<ShardConfig> kEmpty;
  auto it = shards_.find(shard);
  return it == shards_.end() ? kEmpty : it->second;
}

const ShardConfig& Store::last(ShardId shard) const { return shard_log(shard).last(); }

Store::Outcome Store::apply(const sim::AnyMessage& request) {
  RequestId id = *request_id(request);
  auto it = replies_.find(id);
  if (it != replies_.end()) return {it->second, std::nullopt};  // a retry
  Outcome out = execute(request);
  replies_.emplace(id, out.reply);
  return out;
}

Store::Outcome Store::execute(const sim::AnyMessage& request) {
  Outcome out;
  if (const auto* cas = request.as<CsCas>()) {
    bool ok = shards_[cas->shard].cas(cas->expected, cas->next);
    out.reply = sim::AnyMessage(CsCasReply{ok, cas->req_id});
    if (ok) out.change = sim::AnyMessage(ConfigChange{cas->shard, cas->next});
  } else if (const auto* gl = request.as<CsGetLast>()) {
    out.reply = sim::AnyMessage(CsGetLastReply{last(gl->shard), gl->req_id});
  } else if (const auto* g = request.as<CsGet>()) {
    const ShardConfig* c = shard_log(g->shard).at(g->epoch);
    out.reply = sim::AnyMessage(CsGetReply{c != nullptr, c ? *c : ShardConfig{}, g->req_id});
  } else if (const auto* gcas = request.as<GcsCas>()) {
    bool ok = global_.cas(gcas->expected, gcas->next);
    out.reply = sim::AnyMessage(GcsCasReply{ok, gcas->req_id});
    if (ok) out.change = sim::AnyMessage(GlobalConfigChange{gcas->next});
  } else if (const auto* ggl = request.as<GcsGetLast>()) {
    out.reply = sim::AnyMessage(GcsGetLastReply{last(), ggl->req_id});
  } else if (const auto* gg = request.as<GcsGet>()) {
    const GlobalConfig* c = global_.at(gg->epoch);
    out.reply = sim::AnyMessage(GcsGetReply{c != nullptr, c ? *c : GlobalConfig{}, gg->req_id});
  }
  return out;
}

void Frontend::notify(const std::optional<sim::AnyMessage>& change) {
  if (!change) return;
  // Paper: "the service sends it in a CONFIG_CHANGE message to the members
  // of shards other than s".  Receivers filter on their own shard (line 68),
  // so notifying every subscriber is equivalent.
  for (ProcessId p : subscribers_) rt().send(id(), p, *change);
}

}  // namespace ratc::configsvc
