#include "configsvc/client.h"

namespace ratc::configsvc {

CsClient::CsClient(rt::Runtime& rt, ProcessId owner,
                   std::vector<ProcessId> endpoints, Duration retry_every)
    : rt_(rt),
      owner_(owner),
      endpoints_(std::move(endpoints)),
      retry_every_(retry_every) {}

void CsClient::cas(ShardId shard, Epoch expected, ShardConfig next,
                   std::function<void(bool)> cb) {
  RequestId id = fresh_id();
  CsCas req{shard, expected, std::move(next), id};
  dispatch(id, sim::AnyMessage(std::move(req)),
           [cb = std::move(cb)](const sim::AnyMessage& m) {
             cb(m.as<CsCasReply>()->ok);
           });
}

void CsClient::get_last(ShardId shard, std::function<void(const ShardConfig&)> cb) {
  RequestId id = fresh_id();
  dispatch(id, sim::AnyMessage(CsGetLast{shard, id}),
           [cb = std::move(cb)](const sim::AnyMessage& m) {
             cb(m.as<CsGetLastReply>()->config);
           });
}

void CsClient::get(ShardId shard, Epoch epoch,
                   std::function<void(bool, const ShardConfig&)> cb) {
  RequestId id = fresh_id();
  dispatch(id, sim::AnyMessage(CsGet{shard, epoch, id}),
           [cb = std::move(cb)](const sim::AnyMessage& m) {
             const auto* r = m.as<CsGetReply>();
             cb(r->found, r->config);
           });
}

void CsClient::dispatch(RequestId id, sim::AnyMessage request,
                        std::function<void(const sim::AnyMessage&)> done) {
  Pending p;
  p.request = request;
  p.done = std::move(done);
  pending_.emplace(id, std::move(p));
  broadcast(request);
  arm_retry(id);
}

void CsClient::broadcast(const sim::AnyMessage& request) {
  for (ProcessId e : endpoints_) rt_.send(owner_, e, request);
}

void CsClient::arm_retry(RequestId id) {
  rt_.schedule_for(owner_, retry_every_, [this, id] {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;
    broadcast(it->second.request);
    arm_retry(id);
  });
}

bool CsClient::complete(RequestId id, const sim::AnyMessage& msg) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return true;  // duplicate reply: consumed, ignored
  auto done = std::move(it->second.done);
  pending_.erase(it);
  done(msg);
  return true;
}

bool CsClient::handle(const sim::AnyMessage& msg) {
  if (const auto* r = msg.as<CsCasReply>()) return complete(r->req_id, msg);
  if (const auto* r = msg.as<CsGetLastReply>()) return complete(r->req_id, msg);
  if (const auto* r = msg.as<CsGetReply>()) return complete(r->req_id, msg);
  return false;
}

GcsClient::GcsClient(rt::Runtime& rt, ProcessId owner,
                     std::vector<ProcessId> endpoints, Duration retry_every)
    : rt_(rt),
      owner_(owner),
      endpoints_(std::move(endpoints)),
      retry_every_(retry_every) {}

void GcsClient::cas(Epoch expected, GlobalConfig next, std::function<void(bool)> cb) {
  RequestId id = fresh_id();
  GcsCas req{expected, std::move(next), id};
  dispatch(id, sim::AnyMessage(std::move(req)),
           [cb = std::move(cb)](const sim::AnyMessage& m) {
             cb(m.as<GcsCasReply>()->ok);
           });
}

void GcsClient::get_last(std::function<void(const GlobalConfig&)> cb) {
  RequestId id = fresh_id();
  dispatch(id, sim::AnyMessage(GcsGetLast{id}),
           [cb = std::move(cb)](const sim::AnyMessage& m) {
             cb(m.as<GcsGetLastReply>()->config);
           });
}

void GcsClient::get(Epoch epoch, std::function<void(bool, const GlobalConfig&)> cb) {
  RequestId id = fresh_id();
  dispatch(id, sim::AnyMessage(GcsGet{epoch, id}),
           [cb = std::move(cb)](const sim::AnyMessage& m) {
             const auto* r = m.as<GcsGetReply>();
             cb(r->found, r->config);
           });
}

void GcsClient::dispatch(RequestId id, sim::AnyMessage request,
                         std::function<void(const sim::AnyMessage&)> done) {
  Pending p;
  p.request = request;
  p.done = std::move(done);
  pending_.emplace(id, std::move(p));
  broadcast(request);
  arm_retry(id);
}

void GcsClient::broadcast(const sim::AnyMessage& request) {
  for (ProcessId e : endpoints_) rt_.send(owner_, e, request);
}

void GcsClient::arm_retry(RequestId id) {
  rt_.schedule_for(owner_, retry_every_, [this, id] {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;
    broadcast(it->second.request);
    arm_retry(id);
  });
}

bool GcsClient::complete(RequestId id, const sim::AnyMessage& msg) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return true;
  auto done = std::move(it->second.done);
  pending_.erase(it);
  done(msg);
  return true;
}

bool GcsClient::handle(const sim::AnyMessage& msg) {
  if (const auto* r = msg.as<GcsCasReply>()) return complete(r->req_id, msg);
  if (const auto* r = msg.as<GcsGetLastReply>()) return complete(r->req_id, msg);
  if (const auto* r = msg.as<GcsGetReply>()) return complete(r->req_id, msg);
  return false;
}

}  // namespace ratc::configsvc
