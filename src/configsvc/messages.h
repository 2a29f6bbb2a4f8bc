// Configuration service message vocabulary (paper Sec. 3: compare_and_swap,
// get_last, get, and CONFIG_CHANGE notifications; Sec. 5 global variants).
// Every request carries a request id, which its reply echoes: the client
// matches replies by it and the store executes each id at most once.
#pragma once

#include <optional>

#include "common/types.h"
#include "configsvc/config.h"
#include "sim/message.h"

namespace ratc::configsvc {

using RequestId = std::uint64_t;

// --- per-shard interface (Sec. 3 protocol) --------------------------------

struct CsCas {
  static constexpr const char* kName = "CS_CAS";
  ShardId shard = 0;
  Epoch expected = kNoEpoch;
  ShardConfig next;
  RequestId req_id = 0;
  std::size_t wire_size() const { return 32 + next.members.size() * 4; }
};

struct CsCasReply {
  static constexpr const char* kName = "CS_CAS_REPLY";
  bool ok = false;
  RequestId req_id = 0;
};

struct CsGetLast {
  static constexpr const char* kName = "CS_GET_LAST";
  ShardId shard = 0;
  RequestId req_id = 0;
};

struct CsGetLastReply {
  static constexpr const char* kName = "CS_GET_LAST_REPLY";
  ShardConfig config;
  RequestId req_id = 0;
  std::size_t wire_size() const { return 24 + config.members.size() * 4; }
};

struct CsGet {
  static constexpr const char* kName = "CS_GET";
  ShardId shard = 0;
  Epoch epoch = kNoEpoch;
  RequestId req_id = 0;
};

struct CsGetReply {
  static constexpr const char* kName = "CS_GET_REPLY";
  bool found = false;
  ShardConfig config;
  RequestId req_id = 0;
  std::size_t wire_size() const { return 24 + config.members.size() * 4; }
};

/// Sent by the CS to processes in other shards when a new configuration is
/// persisted (handled at Fig. 1 line 67).
struct ConfigChange {
  static constexpr const char* kName = "CONFIG_CHANGE";
  ShardId shard = 0;
  ShardConfig config;
  std::size_t wire_size() const { return 16 + config.members.size() * 4; }
};

// --- global interface (Sec. 5 / Sec. C RDMA protocol) ----------------------

struct GcsCas {
  static constexpr const char* kName = "GCS_CAS";
  Epoch expected = kNoEpoch;
  GlobalConfig next;
  RequestId req_id = 0;
  std::size_t wire_size() const { return 32 + next.members.size() * 16; }
};

struct GcsCasReply {
  static constexpr const char* kName = "GCS_CAS_REPLY";
  bool ok = false;
  RequestId req_id = 0;
};

struct GcsGetLast {
  static constexpr const char* kName = "GCS_GET_LAST";
  RequestId req_id = 0;
};

struct GcsGetLastReply {
  static constexpr const char* kName = "GCS_GET_LAST_REPLY";
  GlobalConfig config;
  RequestId req_id = 0;
  std::size_t wire_size() const { return 24 + config.members.size() * 16; }
};

struct GcsGet {
  static constexpr const char* kName = "GCS_GET";
  Epoch epoch = kNoEpoch;
  RequestId req_id = 0;
};

struct GcsGetReply {
  static constexpr const char* kName = "GCS_GET_REPLY";
  bool found = false;
  GlobalConfig config;
  RequestId req_id = 0;
  std::size_t wire_size() const { return 24 + config.members.size() * 16; }
};

/// Sent by the global CS to subscribers when a new global configuration is
/// persisted — the Sec. 5 analogue of CONFIG_CHANGE, used by the
/// reconfiguration controllers (src/ctrl/) to track live membership.
struct GlobalConfigChange {
  static constexpr const char* kName = "GCONFIG_CHANGE";
  GlobalConfig config;
  std::size_t wire_size() const { return 16 + config.members.size() * 16; }
};

/// The request id `msg` carries if it is one of Ts, else nullopt.
template <typename... Ts>
std::optional<RequestId> request_id_of(const sim::AnyMessage& msg) {
  std::optional<RequestId> id;
  (void)((msg.is<Ts>() && (id = msg.as<Ts>()->req_id, true)) || ...);
  return id;
}

/// Set iff `msg` is a request of either interface.
inline std::optional<RequestId> request_id(const sim::AnyMessage& msg) {
  return request_id_of<CsCas, CsGetLast, CsGet, GcsCas, GcsGetLast, GcsGet>(msg);
}

/// Set iff `msg` is a reply of either interface.
inline std::optional<RequestId> reply_id(const sim::AnyMessage& msg) {
  return request_id_of<CsCasReply, CsGetLastReply, CsGetReply, GcsCasReply,
                       GcsGetLastReply, GcsGetReply>(msg);
}

}  // namespace ratc::configsvc
