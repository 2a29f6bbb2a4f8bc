#include "configsvc/simple_service.h"

#include <cassert>

#include "common/log.h"

namespace ratc::configsvc {

SimpleConfigService::SimpleConfigService(rt::Runtime& rt, ProcessId id)
    : Process(rt, id, "cs") {}

void SimpleConfigService::bootstrap(ShardId shard, ShardConfig config) {
  assert(config.valid());
  configs_[shard][config.epoch] = config;
  last_epoch_[shard] = std::max(last_epoch_[shard], config.epoch);
}

const ShardConfig& SimpleConfigService::last(ShardId shard) const {
  static const ShardConfig kInvalid;
  auto it = last_epoch_.find(shard);
  if (it == last_epoch_.end()) return kInvalid;
  return configs_.at(shard).at(it->second);
}

void SimpleConfigService::on_message(ProcessId from, const sim::AnyMessage& msg) {
  if (const auto* cas = msg.as<CsCas>()) {
    Epoch last = last_epoch_.count(cas->shard) ? last_epoch_[cas->shard] : kNoEpoch;
    bool ok = (last == cas->expected) && (cas->next.epoch > last);
    if (ok) {
      configs_[cas->shard][cas->next.epoch] = cas->next;
      last_epoch_[cas->shard] = cas->next.epoch;
      RATC_DEBUG("CS: stored s" << cas->shard << " " << cas->next.to_string());
    }
    rt().send_msg(id(), from, CsCasReply{ok, cas->req_id});
    if (ok) broadcast_change(cas->shard, cas->next);
  } else if (const auto* gl = msg.as<CsGetLast>()) {
    rt().send_msg(id(), from, CsGetLastReply{last(gl->shard), gl->req_id});
  } else if (const auto* g = msg.as<CsGet>()) {
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
    rt().send_msg(id(), from, reply);
  }
}

void SimpleConfigService::broadcast_change(ShardId shard, const ShardConfig& config) {
  // Paper: "the service sends it in a CONFIG_CHANGE message to the members
  // of shards other than s".  Receivers filter on their own shard (line 68),
  // so notifying every subscriber is equivalent.
  for (ProcessId p : subscribers_) {
    rt().send_msg(id(), p, ConfigChange{shard, config});
  }
}

SimpleGlobalConfigService::SimpleGlobalConfigService(rt::Runtime& rt, ProcessId id)
    : Process(rt, id, "gcs") {}

void SimpleGlobalConfigService::bootstrap(GlobalConfig config) {
  assert(config.valid());
  last_epoch_ = std::max(last_epoch_, config.epoch);
  configs_[config.epoch] = std::move(config);
}

void SimpleGlobalConfigService::on_message(ProcessId from, const sim::AnyMessage& msg) {
  if (const auto* cas = msg.as<GcsCas>()) {
    bool ok = (last_epoch_ == cas->expected) && (cas->next.epoch > last_epoch_);
    if (ok) {
      last_epoch_ = cas->next.epoch;
      configs_[cas->next.epoch] = cas->next;
      RATC_DEBUG("GCS: stored global epoch " << cas->next.epoch);
    }
    rt().send_msg(id(), from, GcsCasReply{ok, cas->req_id});
    if (ok) {
      for (ProcessId p : subscribers_) {
        rt().send_msg(id(), p, GlobalConfigChange{configs_.at(last_epoch_)});
      }
    }
  } else if (const auto* gl = msg.as<GcsGetLast>()) {
    GcsGetLastReply reply;
    if (last_epoch_ != kNoEpoch) reply.config = configs_.at(last_epoch_);
    reply.req_id = gl->req_id;
    rt().send_msg(id(), from, reply);
  } else if (const auto* g = msg.as<GcsGet>()) {
    GcsGetReply reply;
    reply.req_id = g->req_id;
    auto it = configs_.find(g->epoch);
    if (it != configs_.end()) {
      reply.found = true;
      reply.config = it->second;
    }
    rt().send_msg(id(), from, reply);
  }
}

}  // namespace ratc::configsvc
