// Message vocabulary of the RDMA-based protocol (Figs. 7-8).  PREPARE /
// PREPARE_ACK / PROBE / PROBE_ACK / client messages are shared with the
// message-passing protocol (commit/messages.h); the one-sided writes and
// the global reconfiguration messages are defined here.
#pragma once

#include "commit/log.h"
#include "commit/messages.h"
#include "common/shared.h"
#include "configsvc/config.h"
#include "tcs/decision.h"
#include "tcs/payload.h"

namespace ratc::rdma {

/// ACCEPT shipped by the coordinator via send-rdma (Fig. 7 line 93).  The
/// paper's message carries no epoch — followers cannot (and do not) check
/// it; the epoch and shard fields here are *monitoring metadata only*: the
/// receiving replica ignores them, which is exactly what makes the Fig. 4a
/// counter-example expressible.  The invariant monitor keys acceptances by
/// them and compares the epoch against the receiver's at landing time
/// (Invariant 13).
struct RAccept {
  static constexpr const char* kName = "ACCEPT";
  Epoch epoch = kNoEpoch;  ///< monitor-only
  ShardId shard = 0;       ///< monitor-only
  Slot slot = kNoSlot;
  TxnId txn = 0;
  Shared<tcs::Payload> payload;  ///< the PREPARE_ACK's, forwarded
  tcs::Decision vote = tcs::Decision::kAbort;
  Shared<commit::TxnMeta> meta;  ///< the PREPARE_ACK's, forwarded
  Time prepare_ts = 0;  ///< the leader's CSN-log stamp, replicated with the slot
  std::size_t wire_size() const {
    return 48 + payload->wire_size() + meta->participants.size() * 4;
  }
};

/// One one-sided write carrying a whole batch's ACCEPTs for one follower
/// (the batched certification path).  Semantically the items land in order
/// as if written back-to-back; the NIC acknowledges once for the batch.
/// Batches of one are never sent — the scalar RAccept is used instead.
struct RAcceptBatch {
  static constexpr const char* kName = "ACCEPT_BATCH";
  std::vector<RAccept> items;
  std::size_t wire_size() const { return commit::detail::batch_wire_size(items); }
};

/// DECISION written via send-rdma to shard members (Fig. 7 line 100).
struct RDecision {
  static constexpr const char* kName = "DECISION";
  Slot slot = kNoSlot;
  TxnId txn = 0;
  tcs::Decision decision = tcs::Decision::kAbort;
  Time csn_ts = 0;  ///< csn(t).ts for commits: max prepare stamp over shards
};

// --- global reconfiguration (Fig. 8) -----------------------------------------

/// Reconfigurer -> every member of the new configuration (line 124).
struct ConfigPrepare {
  static constexpr const char* kName = "CONFIG_PREPARE";
  Epoch epoch = kNoEpoch;
  configsvc::GlobalConfig config;
  std::size_t wire_size() const { return 16 + config.members.size() * 16; }
};

struct ConfigPrepareAck {
  static constexpr const char* kName = "CONFIG_PREPARE_ACK";
  Epoch epoch = kNoEpoch;
};

/// Reconfigurer -> the new leaders (line 139).
struct RNewConfig {
  static constexpr const char* kName = "NEW_CONFIG";
  Epoch epoch = kNoEpoch;
};

/// New leader -> its followers: state transfer (line 146).
struct RNewState {
  static constexpr const char* kName = "NEW_STATE";
  Epoch epoch = kNoEpoch;
  commit::ReplicaLog log;
  std::size_t wire_size() const { return 16 + log.wire_size(); }
};

struct Connect {
  static constexpr const char* kName = "CONNECT";
  Epoch epoch = kNoEpoch;
};

struct ConnectAck {
  static constexpr const char* kName = "CONNECT_ACK";
  Epoch epoch = kNoEpoch;
};

}  // namespace ratc::rdma
