#include "configsvc/client.h"

namespace ratc::configsvc {

template <typename Reply, typename Request, typename Done>
void CsClient::call(Request request, Done done) {
  RequestId id = (static_cast<RequestId>(owner_) << 32) | next_seq_++;
  request.req_id = id;
  Pending& p = pending_[id];
  p.request = sim::AnyMessage(std::move(request));
  p.done = [done = std::move(done)](const sim::AnyMessage& m) { done(*m.as<Reply>()); };
  broadcast(p.request);
  arm_retry(id);
}

void CsClient::cas(ShardId shard, Epoch expected, ShardConfig next,
                   std::function<void(bool)> cb) {
  call<CsCasReply>(CsCas{shard, expected, std::move(next)},
                   [cb = std::move(cb)](const CsCasReply& r) { cb(r.ok); });
}

void CsClient::get_last(ShardId shard, std::function<void(const ShardConfig&)> cb) {
  call<CsGetLastReply>(CsGetLast{shard},
                       [cb = std::move(cb)](const CsGetLastReply& r) { cb(r.config); });
}

void CsClient::get(ShardId shard, Epoch epoch,
                   std::function<void(bool, const ShardConfig&)> cb) {
  call<CsGetReply>(CsGet{shard, epoch},
                   [cb = std::move(cb)](const CsGetReply& r) { cb(r.found, r.config); });
}

void CsClient::cas(Epoch expected, GlobalConfig next, std::function<void(bool)> cb) {
  call<GcsCasReply>(GcsCas{expected, std::move(next)},
                    [cb = std::move(cb)](const GcsCasReply& r) { cb(r.ok); });
}

void CsClient::get_last(std::function<void(const GlobalConfig&)> cb) {
  call<GcsGetLastReply>(GcsGetLast{},
                        [cb = std::move(cb)](const GcsGetLastReply& r) { cb(r.config); });
}

void CsClient::get(Epoch epoch, std::function<void(bool, const GlobalConfig&)> cb) {
  call<GcsGetReply>(GcsGet{epoch},
                    [cb = std::move(cb)](const GcsGetReply& r) { cb(r.found, r.config); });
}

void CsClient::broadcast(const sim::AnyMessage& request) {
  for (ProcessId e : endpoints_) rt_.send(owner_, e, request);
}

void CsClient::arm_retry(RequestId id) {
  rt_.schedule_for(owner_, kRetryEvery, [this, id] {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;
    broadcast(it->second.request);
    arm_retry(id);
  });
}

bool CsClient::handle(const sim::AnyMessage& msg) {
  std::optional<RequestId> id = reply_id(msg);
  if (!id) return false;
  auto it = pending_.find(*id);
  if (it == pending_.end()) return true;  // duplicate reply: consumed, ignored
  auto done = std::move(it->second.done);
  pending_.erase(it);
  done(msg);
  return true;
}

}  // namespace ratc::configsvc
